(* Ablations of the design choices DESIGN.md calls out:

   1. the O(log depth) binary search on the shadow stack (line 7 of
      Figure 8) versus the naive linear walk, measured on a deeply
      recursive workload where it matters;
   2. the periodic timestamp renumbering: handler cost as the overflow
      threshold shrinks (the paper's mitigation must stay affordable);
   3. the write-timestamp shadow the drms pays over the rms: one
      profiler with its induced-read machinery on ([`Both]) and off
      ([`None], plain aprof) — the ~29%-class overhead Table 1
      quantifies end to end. *)

module Drms = Aprof_core.Drms_profiler

(* Replays per variant.  Every replay is one timed run of a fresh
   instance, so a variant's figure is a median, and a comparison
   alternates its two variants so host drift lands on both sides of
   every pairwise ratio. *)
let runs = 21

let replay_seconds make trace =
  fst
    (Exp_common.time (fun () ->
         let p = make () in
         Aprof_trace.Trace.replay trace (Drms.on_batch p)))

let median xs = Aprof_util.Stats.percentile 50. xs

let median_replay make trace =
  median (List.init runs (fun _ -> replay_seconds make trace))

(* [compare_replays a b trace] is the median seconds of [a] and of [b],
   and the 25th, 50th and 75th percentiles of the ratio [a / b] over
   [runs] alternated pairs. *)
let compare_replays a b trace =
  let pairs =
    List.init runs (fun _ ->
        let ta = replay_seconds a trace in
        (ta, replay_seconds b trace))
  in
  let ratios = List.map (fun (ta, tb) -> ta /. tb) pairs in
  let q p = Aprof_util.Stats.percentile p ratios in
  ( median (List.map fst pairs),
    median (List.map snd pairs),
    (q 25., q 50., q 75.) )

let deep_trace () =
  (* merge sort has Theta(log n) live ancestors per access *)
  let r =
    Aprof_workloads.Workload.run
      (Aprof_workloads.Sorting.merge_sort_run ~n:4000 ~seed:3)
      ~seed:3
  in
  r.Aprof_vm.Interp.trace

let mixed_trace () =
  let r =
    Aprof_workloads.Workload.run_spec
      (Option.get (Aprof_workloads.Registry.find "dedup"))
      ~threads:4 ~scale:300 ~seed:3
  in
  r.Aprof_vm.Interp.trace

let run ppf =
  Exp_common.section ppf "ablation: drms design choices";
  let deep = deep_trace () in
  let t_lin, t_bin, (lo, mid, hi) =
    compare_replays
      (fun () -> Drms.create ~ancestor_search:`Linear ())
      (fun () -> Drms.create ())
      deep
  in
  Format.fprintf ppf
    "  ancestor search on deep recursion (merge sort, %d events):@."
    (Aprof_trace.Trace.length deep);
  Format.fprintf ppf "    binary search: %.4f s/replay@." t_bin;
  Format.fprintf ppf
    "    linear walk:   %.4f s/replay (%.2fx; quartiles %.2f-%.2fx over %d \
     alternated pairs)@."
    t_lin mid lo hi runs;

  let mixed = mixed_trace () in
  Format.fprintf ppf "  renumbering threshold (dedup, %d events):@."
    (Aprof_trace.Trace.length mixed);
  List.iter
    (fun limit ->
      let make () = Drms.create ~overflow_limit:limit () in
      let t = median_replay make mixed in
      let p = make () in
      Aprof_trace.Trace.replay mixed (Drms.on_batch p);
      Format.fprintf ppf
        "    overflow_limit=%-9d %.4f s/replay (%d renumberings)@." limit t
        (Drms.renumber_count p))
    [ max_int - 1; 100_000; 10_000; 1_000 ];

  let t_full, t_rms, (lo, mid, hi) =
    compare_replays
      (fun () -> Drms.create ())
      (fun () -> Drms.create ~mode:`None ())
      mixed
  in
  let pct r = 100. *. (r -. 1.) in
  Format.fprintf ppf
    "  recognizing induced first-reads (aprof-drms vs plain aprof) on dedup:@.";
  Format.fprintf ppf "    aprof-drms: %.4f s/replay@." t_full;
  Format.fprintf ppf "    aprof:      %.4f s/replay@." t_rms;
  Format.fprintf ppf
    "    drms costs %.0f%% more (quartiles %.0f%% to %.0f%% over %d \
     alternated pairs; paper: ~29%%)@."
    (pct mid) (pct lo) (pct hi) runs
