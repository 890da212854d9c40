(* The restricted induction modes (Figure 6b and ablations): per-routine
   input-size sums must be monotone rms <= restricted drms <= full drms. *)

open Helpers
module Profile = Aprof_core.Profile

let sums mode trace =
  let p = Aprof_core.Drms_profiler.create ~mode () in
  Aprof_trace.Trace.replay trace (Aprof_core.Drms_profiler.on_batch p);
  let profile = Aprof_core.Drms_profiler.finish p in
  Profile.keys profile
  |> List.filter_map (fun k ->
         Option.map
           (fun (d : Profile.routine_data) ->
             (k, d.Profile.sum_rms, d.Profile.sum_drms))
           (Profile.data profile k))
  |> List.sort compare

let monotone trace =
  let full = sums `Both trace in
  let ext = sums `External_only trace in
  let thr = sums `Thread_only trace in
  let none = sums `None trace in
  List.for_all2
    (fun (k1, rms, dfull) ((k2, _, dext), ((k3, _, dthr), (k4, _, dnone))) ->
      k1 = k2 && k1 = k3 && k1 = k4 && rms <= dext && rms <= dthr
      && dext <= dfull && dthr <= dfull && dnone = rms)
    full
    (List.combine ext (List.combine thr none))

let modes_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"mode monotonicity" ~count:150
       ~print:Gen_trace.print (Gen_trace.gen ()) monotone)

(* On the stream reader all dynamic input is external; on the
   producer-consumer all of it is thread input. *)
let test_pure_sources () =
  let sr = run_workload (Aprof_workloads.Patterns.stream_reader ~n:15) in
  let sr_trace = sr.Aprof_vm.Interp.trace in
  Alcotest.(check bool) "stream reader: ext-only = full" true
    (sums `External_only sr_trace = sums `Both sr_trace);
  let pc = run_workload (Aprof_workloads.Patterns.producer_consumer ~n:15) in
  let pc_trace = pc.Aprof_vm.Interp.trace in
  Alcotest.(check bool) "producer-consumer: thread-only = full" true
    (sums `Thread_only pc_trace = sums `Both pc_trace);
  Alcotest.(check bool) "producer-consumer: ext-only = rms" true
    (sums `External_only pc_trace = sums `None pc_trace)

let suite =
  [
    modes_prop;
    Alcotest.test_case "pure-source workloads" `Quick test_pure_sources;
  ]
