(* The communication profiler: exact matrices on hand-built traces and
   sanity on workloads. *)

open Aprof_vm.Program
module Comm = Aprof_core.Comm_profiler
module Event = Aprof_trace.Event
module Vec = Aprof_util.Vec

let run_trace trace =
  let c = Comm.create () in
  Aprof_trace.Trace.replay trace (Comm.on_batch c);
  Comm.report c

let test_fig1a_matrix () =
  let trace, _ = Aprof_workloads.Micro.fig1a () in
  let r = run_trace trace in
  (* g (thread 1) writes x; f (thread 0) re-reads it: one value 1 -> 0. *)
  Alcotest.(check int) "one value" 1 r.Comm.total_values;
  (match r.Comm.thread_matrix with
  | [ e ] ->
    Alcotest.(check int) "writer" 1 e.Comm.from_id;
    Alcotest.(check int) "reader" 0 e.Comm.to_id;
    Alcotest.(check int) "count" 1 e.Comm.values
  | _ -> Alcotest.fail "expected a single thread edge");
  Alcotest.(check int) "one communicating cell" 1 r.Comm.communicating_cells;
  Alcotest.(check int) "single pair" 1 r.Comm.single_pair_cells

let test_kernel_edge () =
  let trace, _ = Aprof_workloads.Micro.external_refill ~n:5 in
  let r = run_trace trace in
  Alcotest.(check int) "five refills" 5 r.Comm.total_values;
  match r.Comm.thread_matrix with
  | [ e ] ->
    Alcotest.(check int) "kernel writer" Comm.kernel_id e.Comm.from_id;
    Alcotest.(check int) "five values" 5 e.Comm.values
  | _ -> Alcotest.fail "expected a single kernel edge"

let test_producer_consumer_routines () =
  let result =
    Aprof_workloads.Workload.run
      (Aprof_workloads.Patterns.producer_consumer ~n:12)
      ~seed:3
  in
  let r = run_trace result.Aprof_vm.Interp.trace in
  let tbl = result.Aprof_vm.Interp.routines in
  let id n = Option.get (Aprof_trace.Routine_table.find tbl n) in
  let edge =
    List.find
      (fun e ->
        e.Comm.from_id = id "produceData" && e.Comm.to_id = id "consumeData")
      r.Comm.routine_matrix
  in
  Alcotest.(check int) "12 values produced to consumed" 12 edge.Comm.values

let test_multi_pair_cell () =
  (* Three threads ping through one cell: the cell must not be counted as
     single-pair. *)
  let prog =
    let* cell = alloc 1 in
    let* m = Aprof_vm.Sync.Mutex.create () in
    let worker =
      call "bump"
        (for_ 1 5 (fun _ ->
             Aprof_vm.Sync.Mutex.with_lock m
               (let* v = read cell in
                write cell (v + 1))))
    in
    let* tids = Aprof_workloads.Blocks.spawn_all [ worker; worker; worker ] in
    Aprof_workloads.Blocks.join_all tids
  in
  let result =
    Aprof_vm.Interp.run
      {
        Aprof_vm.Interp.default_config with
        scheduler = Aprof_vm.Scheduler.Round_robin { slice = 3 };
      }
      [ prog ]
  in
  let r = run_trace result.Aprof_vm.Interp.trace in
  Alcotest.(check bool) "cell shared by several pairs" true
    (r.Comm.single_pair_cells < r.Comm.communicating_cells)

(* Consistency with the drms profiler: total communicated values equals
   the total number of induced first-reads (both count line-1 hits), on
   traces whose every read happens under some routine. *)
let totals_agree trace =
  let c = Comm.create () in
  Aprof_trace.Trace.replay trace (Comm.on_batch c);
  let drms = Aprof_core.Drms_profiler.create () in
  Aprof_trace.Trace.replay trace (Aprof_core.Drms_profiler.on_batch drms);
  let profile = Aprof_core.Drms_profiler.finish drms in
  let induced =
    List.fold_left
      (fun acc (_, d) ->
        acc + d.Aprof_core.Profile.induced_thread_ops
        + d.Aprof_core.Profile.induced_external_ops)
      0
      (Aprof_core.Profile.merge_threads profile)
  in
  (* the drms profiler does not attribute reads outside any routine, so
     compare against the comm values whose consumer is a routine *)
  let comm_in_routines =
    List.fold_left
      (fun acc e -> if e.Comm.to_id <> -1 then acc + e.Comm.values else acc)
      0
      (Comm.report c).Comm.routine_matrix
  in
  comm_in_routines = induced

let totals_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"comm totals = induced first-reads" ~count:150
       ~print:Gen_trace.print
       (Gen_trace.gen
          ~params:{ Gen_trace.default_params with max_depth = 4 }
          ())
       totals_agree)

let suite =
  [
    Alcotest.test_case "fig1a matrix" `Quick test_fig1a_matrix;
    Alcotest.test_case "kernel edge" `Quick test_kernel_edge;
    Alcotest.test_case "producer->consumer routine edge" `Quick
      test_producer_consumer_routines;
    Alcotest.test_case "multi-pair cell" `Quick test_multi_pair_cell;
    totals_prop;
  ]
