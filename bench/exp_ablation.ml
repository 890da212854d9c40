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

(* A cell: one replay of [trace] into a fresh instance from [make]. *)
let replay make trace time =
  time (fun () ->
      let p = make () in
      Aprof_trace.Trace.replay trace (Drms.on_batch p))

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

let limits = [ max_int - 1; 100_000; 10_000; 1_000 ]

(* Every variant is a cell of one sampler run, so a comparison's two
   variants alternate within each round and its ratio is per round. *)
let run ~quick ppf =
  Exp_common.section ppf "ablation: drms design choices";
  let deep = deep_trace () and mixed = mixed_trace () in
  let rounds = Exp_common.rounds ~quick in
  let samples =
    Exp_common.sample ~rounds
      ([
         replay (fun () -> Drms.create ~ancestor_search:`Linear ()) deep;
         replay (fun () -> Drms.create ()) deep;
         replay (fun () -> Drms.create ~mode:`None ()) mixed;
       ]
      @ List.map
          (fun limit ->
            replay (fun () -> Drms.create ~overflow_limit:limit ()) mixed)
          limits)
  in
  let median s = (Exp_common.Stats.summary s).median in
  let t_lin, t_bin, t_rms, by_limit =
    match samples with
    | t_lin :: t_bin :: t_rms :: by_limit -> (t_lin, t_bin, t_rms, by_limit)
    | _ -> assert false
  in
  let r = Exp_common.Stats.ratio t_lin t_bin in
  Format.fprintf ppf
    "  ancestor search on deep recursion (merge sort, %d events):@."
    (Aprof_trace.Trace.length deep);
  Format.fprintf ppf "    binary search: %.4f s/replay@." (median t_bin);
  Format.fprintf ppf
    "    linear walk:   %.4f s/replay (%.2fx; quartiles %.2f-%.2fx over %d \
     rounds)@."
    (median t_lin) r.median r.p25 r.p75 rounds;
  Format.fprintf ppf "  renumbering threshold (dedup, %d events):@."
    (Aprof_trace.Trace.length mixed);
  List.iter2
    (fun limit t ->
      let p = Drms.create ~overflow_limit:limit () in
      Aprof_trace.Trace.replay mixed (Drms.on_batch p);
      Format.fprintf ppf
        "    overflow_limit=%-9d %.4f s/replay (%d renumberings)@." limit
        (median t) (Drms.renumber_count p))
    limits by_limit;
  (* The first limit is the default, so its cell is the full drms's. *)
  let t_full = List.hd by_limit in
  let r = Exp_common.Stats.ratio t_full t_rms in
  let pct r = 100. *. (r -. 1.) in
  Format.fprintf ppf
    "  recognizing induced first-reads (aprof-drms vs plain aprof) on dedup:@.";
  Format.fprintf ppf "    aprof-drms: %.4f s/replay@." (median t_full);
  Format.fprintf ppf "    aprof:      %.4f s/replay@." (median t_rms);
  Format.fprintf ppf
    "    drms costs %.0f%% more (quartiles %.0f%% to %.0f%% over %d rounds; \
     paper: ~29%%)@."
    (pct r.median) (pct r.p25) (pct r.p75) rounds
