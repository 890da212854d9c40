(* The differential that licenses [aprof replay --profiler {drms,naive}
   -j N]: parallel replay through the work-stealing engine must produce
   exactly the sequential profile — same points, same activation
   counts, same attribution counters — for 50 random VM programs under
   every scheduler policy at N ∈ {2, 3, 4}, and for real workload
   traces round-tripped through the on-disk chunk index. *)

open Helpers
module Interp = Aprof_vm.Interp
module Workload = Aprof_workloads.Workload
module Registry = Aprof_workloads.Registry
module Stream = Aprof_trace.Trace_stream
module Codec = Aprof_trace.Trace_codec
module Tool = Aprof_tools.Tool
module Par = Aprof_util.Par
module Drms = Aprof_core.Drms_profiler
module Naive = Aprof_core.Naive_drms

let jobs_list = [ 2; 3; 4 ]

let check_shards ~label ~trace_events shards =
  let drms1, naive1 =
    (* Sequential baselines through the same engine entry point. *)
    let pool = Par.create ~jobs:1 () in
    let d, _, _ =
      Tool.replay_parallel ~pool ~jobs:1 ~shards
        (module Aprof_tools.Aprof_adapters.Drms)
    in
    let n, _, _ =
      Tool.replay_parallel ~pool ~jobs:1 ~shards
        (module Aprof_tools.Aprof_adapters.Naive)
    in
    (Drms.finish d, Naive.finish n)
  in
  List.iter
    (fun jobs ->
      let pool = Par.create ~jobs () in
      let st, n, _ =
        Tool.replay_parallel ~pool ~jobs ~shards
          (module Aprof_tools.Aprof_adapters.Drms)
      in
      Alcotest.(check int)
        (Printf.sprintf "%s -j%d: unique events" label jobs)
        trace_events n;
      let p = Drms.finish st in
      check_profiles_equal
        (Printf.sprintf "%s -j%d: drms = -j1" label jobs)
        drms1 p;
      check_ops_equal
        (Printf.sprintf "%s -j%d: drms attribution = -j1" label jobs)
        drms1 p;
      let st, _, _ =
        Tool.replay_parallel ~pool ~jobs ~shards
          (module Aprof_tools.Aprof_adapters.Naive)
      in
      check_profiles_equal
        (Printf.sprintf "%s -j%d: naive = -j1" label jobs)
        naive1
        (Naive.finish st))
    jobs_list

let check_program ~sched_name ~scheduler seed =
  let w =
    { Workload.programs = Test_vm_differential.gen_program seed;
        devices = Test_vm_differential.gen_devices () }
  in
  let result = Workload.run ~scheduler w ~seed in
  let trace = result.Interp.trace in
  (* Small chunks, so even these short traces span enough chunks for the
     deques to migrate work. *)
  check_shards
    ~label:(Printf.sprintf "seed %d (%s)" seed sched_name)
    ~trace_events:(Aprof_trace.Trace.length trace)
    (Tool.Shards.of_trace ~chunk_events:64 trace)

let program_tests =
  List.map
    (fun (sched_name, scheduler) ->
      Alcotest.test_case
        (Printf.sprintf "50 random programs (%s), -j {2,3,4}" sched_name)
        `Slow
        (fun () ->
          for seed = 0 to 49 do
            check_program ~sched_name ~scheduler seed
          done))
    Test_vm_differential.schedulers

(* Same differential, but through the real on-disk path: record the
   trace to a binary file (chunked, with the ATRI shard index) and
   shard via {!Tool.Shards.of_file} — seeks, checksums and the shared
   name table included. *)
let test_file_roundtrip () =
  List.iter
    (fun name ->
      let spec = Option.get (Registry.find name) in
      let result =
        Workload.run_spec
          ~scheduler:
            (Aprof_vm.Scheduler.Random_preemptive
               { min_slice = 4; max_slice = 32 })
          spec ~threads:3 ~scale:120 ~seed:5
      in
      let trace = result.Interp.trace in
      let path = Filename.temp_file "aprof_pardiff" ".atrc" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_bin path (fun oc ->
              let sink =
                Codec.batch_writer
                  ~routine_name:
                    (Aprof_trace.Routine_table.name result.Interp.routines)
                  oc
              in
              let batches = Helpers.batches_of_trace trace in
              let rec loop () =
                match batches () with
                | None -> ()
                | Some b ->
                  sink.Stream.emit_batch b;
                  loop ()
              in
              loop ();
              sink.Stream.close_batch ());
          match Tool.Shards.of_file path with
          | None -> Alcotest.failf "%s: recorded file has no chunk index" name
          | Some shards ->
            check_shards ~label:(name ^ " (file)")
              ~trace_events:(Aprof_trace.Trace.length trace) shards))
    [ "mysqlslap"; "dedup" ]

let suite =
  program_tests
  @ [ Alcotest.test_case "workload files via the chunk index" `Quick
        test_file_roundtrip ]
