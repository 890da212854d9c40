(* End-to-end sweep over every registered workload at a small scale:
   the trace must be well-formed, the timestamping profiler must agree
   exactly with the naive oracle (a differential test on *real*
   program-shaped traces, not just random ones), Inequality 1 must hold,
   and the synchronization must be race-free under happens-before. *)

open Helpers
module Workload = Aprof_workloads.Workload
module Registry = Aprof_workloads.Registry

let small_scale spec =
  (* keep the naive-oracle runs affordable *)
  match spec.Workload.name with
  | "vips" -> 30
  | "dedup" -> 60
  | _ -> 80

let run_with scheduler spec =
  Workload.run_spec ~scheduler spec ~threads:3 ~scale:(small_scale spec)
    ~seed:13

let run_one spec =
  run_with
    (Aprof_vm.Scheduler.Random_preemptive { min_slice = 4; max_slice = 48 })
    spec

let test_well_formed_and_differential spec () =
  let result = run_one spec in
  let trace = result.Aprof_vm.Interp.trace in
  Alcotest.(check (list string)) "well-formed" [] (Trace.well_formed trace);
  let p1 = run_drms trace in
  let p2 = run_naive trace in
  check_profiles_equal "timestamping = naive" p1 p2;
  check_ops_equal "attribution agrees" p1 p2;
  (* Inequality 1 on every activation *)
  List.iter
    (fun k ->
      match Profile.data p1 k with
      | None -> ()
      | Some d ->
        Alcotest.(check bool) "drms >= rms" true
          (d.Profile.sum_drms >= d.Profile.sum_rms))
    (Profile.keys p1)

let test_race_free spec () =
  let result = run_one spec in
  let t = Aprof_tools.Helgrind_lite.create () in
  Aprof_trace.Trace.replay result.Aprof_vm.Interp.trace (Aprof_tools.Helgrind_lite.on_batch t);
  Alcotest.(check (list string)) "race-free" []
    (List.map
       (fun r -> Format.asprintf "%a" Aprof_tools.Helgrind_lite.pp_race r)
       (Aprof_tools.Helgrind_lite.races t))

(* The full policy menu: every workload must be schedulable — and keep
   its external input — under every policy, not just the default. *)
let policies =
  [
    ("rr", Aprof_vm.Scheduler.Round_robin { slice = 16 });
    ("serialized", Aprof_vm.Scheduler.Serialized);
    ( "random",
      Aprof_vm.Scheduler.Random_preemptive { min_slice = 4; max_slice = 48 } );
    ("ws", Aprof_vm.Scheduler.Work_stealing { workers = 3; slice = 16 });
    ("async", Aprof_vm.Scheduler.Async_io { slice = 16; io_delay = 4 });
  ]

(* mysqlslap draws its request mix from the shared VM rng at run time, so
   its external demand legitimately depends on the interleaving; every
   other workload fixes external input at build time and must show
   identical per-routine external-op counts under every scheduler. *)
let external_ops_by_name result =
  let p = run_drms result.Aprof_vm.Interp.trace in
  List.map
    (fun (id, d) ->
      ( Aprof_trace.Routine_table.name result.Aprof_vm.Interp.routines id,
        d.Profile.induced_external_ops ))
    (Profile.merge_threads p)
  |> List.filter (fun (_, n) -> n > 0)
  |> List.sort compare

let test_scheduler_matrix spec () =
  let counts =
    List.map
      (fun (pname, scheduler) ->
        let result = run_with scheduler spec in
        let trace = result.Aprof_vm.Interp.trace in
        Alcotest.(check (list string))
          (pname ^ " well-formed") [] (Trace.well_formed trace);
        let p1 = run_drms trace and p2 = run_naive trace in
        check_profiles_equal (pname ^ ": timestamping = naive") p1 p2;
        (pname, external_ops_by_name result))
      policies
  in
  if spec.Workload.name <> "mysqlslap" then
    match counts with
    | [] -> ()
    | (p0, c0) :: rest ->
      List.iter
        (fun (p, c) ->
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "external ops: %s = %s" p p0)
            c0 c)
        rest

let suite =
  List.concat_map
    (fun spec ->
      let name = spec.Workload.name in
      [
        Alcotest.test_case (name ^ ": differential") `Slow
          (test_well_formed_and_differential spec);
        Alcotest.test_case (name ^ ": race-free") `Slow (test_race_free spec);
        Alcotest.test_case (name ^ ": scheduler matrix") `Slow
          (test_scheduler_matrix spec);
      ])
    Registry.all
