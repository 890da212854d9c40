(* Ablations of the design choices DESIGN.md calls out:

   1. the O(log depth) binary search on the shadow stack (line 7 of
      Figure 8) versus the naive linear walk, measured on a deeply
      recursive workload where it matters;
   2. the periodic timestamp renumbering: handler cost as the overflow
      threshold shrinks (the paper's mitigation must stay affordable);
   3. the two extra global-shadow accesses the drms pays over the rms
      (the ~29%-class overhead Table 1 quantifies end to end). *)

module Drms = Aprof_core.Drms_profiler

let time_replay make trace =
  let t0 = Sys.time () in
  let runs = ref 0 in
  while Sys.time () -. t0 < 0.4 do
    let p = make () in
    Aprof_trace.Trace.replay trace (Drms.on_batch p);
    incr runs
  done;
  (Sys.time () -. t0) /. float_of_int !runs

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
  let t_bin = time_replay (fun () -> Drms.create ()) deep in
  let t_lin = time_replay (fun () -> Drms.create ~ancestor_search:`Linear ()) deep in
  Format.fprintf ppf
    "  ancestor search on deep recursion (merge sort, %d events):@."
    (Aprof_trace.Trace.length deep);
  Format.fprintf ppf "    binary search: %.4f s/replay@." t_bin;
  Format.fprintf ppf "    linear walk:   %.4f s/replay (%.2fx)@." t_lin
    (t_lin /. t_bin);

  let mixed = mixed_trace () in
  Format.fprintf ppf "  renumbering threshold (dedup, %d events):@."
    (Aprof_trace.Trace.length mixed);
  List.iter
    (fun limit ->
      let t = time_replay (fun () -> Drms.create ~overflow_limit:limit ()) mixed in
      let p = Drms.create ~overflow_limit:limit () in
      Aprof_trace.Trace.replay mixed (Drms.on_batch p);
      Format.fprintf ppf
        "    overflow_limit=%-9d %.4f s/replay (%d renumberings)@." limit t
        (Drms.renumber_count p))
    [ max_int - 1; 100_000; 10_000; 1_000 ];

  let t_full = time_replay (fun () -> Drms.create ()) mixed in
  let t_rms =
    let t0 = Sys.time () in
    let runs = ref 0 in
    while Sys.time () -. t0 < 0.4 do
      let p = Aprof_core.Rms_profiler.create () in
      Aprof_trace.Trace.replay mixed (Aprof_core.Rms_profiler.on_batch p);
      incr runs
    done;
    (Sys.time () -. t0) /. float_of_int !runs
  in
  Format.fprintf ppf
    "  recognizing induced first-reads (aprof-drms vs plain aprof) on dedup:@.";
  Format.fprintf ppf "    aprof-drms: %.4f s/replay@." t_full;
  Format.fprintf ppf
    "    aprof:      %.4f s/replay (drms costs %.0f%% more; paper: ~29%%)@."
    t_rms
    (100. *. ((t_full /. t_rms) -. 1.))
