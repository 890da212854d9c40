(* The comparator tools: helgrind on racy and race-free programs,
   memcheck on seeded memory bugs, callgrind cost invariants. *)

open Aprof_vm.Program
module Interp = Aprof_vm.Interp
module Scheduler = Aprof_vm.Scheduler
module Event = Aprof_trace.Event

let run ?(scheduler = Scheduler.Random_preemptive { min_slice = 1; max_slice = 8 })
    ?(seed = 3) ?(devices = []) threads =
  Interp.run { Interp.scheduler; seed; devices; max_events = 1_000_000;
      reuse_freed_memory = false } threads

(* --- helgrind ------------------------------------------------------- *)

let races_of trace =
  let t = Aprof_tools.Helgrind_lite.create () in
  Aprof_trace.Trace.replay trace (Aprof_tools.Helgrind_lite.on_batch t);
  Aprof_tools.Helgrind_lite.races t

let test_helgrind_clean_producer_consumer () =
  let r =
    Aprof_workloads.Workload.run
      (Aprof_workloads.Patterns.producer_consumer ~n:20)
      ~seed:5
  in
  Alcotest.(check int) "no races" 0
    (List.length (races_of r.Interp.trace))

let test_helgrind_clean_workloads () =
  List.iter
    (fun name ->
      let spec = Option.get (Aprof_workloads.Registry.find name) in
      let r =
        Aprof_workloads.Workload.run_spec
          ~scheduler:(Scheduler.Random_preemptive { min_slice = 4; max_slice = 32 })
          spec ~threads:3 ~scale:120 ~seed:5
      in
      Alcotest.(check int) (name ^ " race-free") 0
        (List.length (races_of r.Interp.trace)))
    [ "dedup"; "fluidanimate"; "nab"; "mysqlslap" ]

let test_helgrind_detects_race () =
  (* Two threads write the same cell with no synchronization at all. *)
  let racy =
    let* cell = alloc 1 in
    let worker =
      for_ 1 10 (fun i ->
          let* () = write cell i in
          let* _ = read cell in
          return ())
    in
    let* a = spawn worker in
    let* b = spawn worker in
    let* () = join a in
    join b
  in
  let r = run [ racy ] in
  let races = races_of r.Interp.trace in
  Alcotest.(check bool) "race reported" true (races <> []);
  Alcotest.(check bool) "write-write among them" true
    (List.exists
       (fun ra -> ra.Aprof_tools.Helgrind_lite.kind = `Write_write)
       races)

(* An out-of-range tid handed straight to the API (bypassing the decode
   edge, which rejects it) must hit the range check in [thread], not the
   same-epoch fast path's unsafe [epochs] read — a negative tid passes
   the upper-bound check alone on any address that already has a cell. *)
let test_helgrind_rejects_bad_tid () =
  let t = Aprof_tools.Helgrind_lite.create () in
  (* Leave the cell with both a write epoch and a read epoch so the bad
     tid reaches each same-epoch guard rather than an empty-state path. *)
  Helpers.feed (Aprof_tools.Helgrind_lite.on_batch t) [ (Event.Write { tid = 0; addr = 5 }) ];
  Helpers.feed (Aprof_tools.Helgrind_lite.on_batch t) [ (Event.Read { tid = 0; addr = 5 }) ];
  List.iter
    (fun tid ->
      List.iter
        (fun ev ->
          Alcotest.check_raises
            (Printf.sprintf "tid %d rejected" tid)
            (Invalid_argument
               (Printf.sprintf "Helgrind_lite: thread id %d out of range" tid))
            (fun () -> Helpers.feed (Aprof_tools.Helgrind_lite.on_batch t) [ ev ]))
        [ Event.Read { tid; addr = 5 }; Event.Write { tid; addr = 5 } ])
    [ -1; min_int; Event.max_tid + 1 ]

let test_helgrind_lock_prevents_race () =
  let clean =
    let* cell = alloc 1 in
    let* m = Aprof_vm.Sync.Mutex.create () in
    let worker =
      for_ 1 10 (fun i ->
          Aprof_vm.Sync.Mutex.with_lock m
            (let* v = read cell in
             write cell (v + i)))
    in
    let* a = spawn worker in
    let* b = spawn worker in
    let* () = join a in
    join b
  in
  let r = run [ clean ] in
  Alcotest.(check int) "no race under mutex" 0
    (List.length (races_of r.Interp.trace))

(* --- memcheck -------------------------------------------------------- *)

let memcheck_on trace =
  let t = Aprof_tools.Memcheck_lite.create () in
  Aprof_trace.Trace.replay trace (Aprof_tools.Memcheck_lite.on_batch t);
  t

let has_error pred t =
  List.exists pred (Aprof_tools.Memcheck_lite.errors t)

let test_memcheck_uninitialized () =
  let buggy =
    let* a = alloc 4 in
    let* _ = read (a + 2) in
    (* never written *)
    return ()
  in
  let r = run [ buggy ] in
  let t = memcheck_on r.Interp.trace in
  Alcotest.(check bool) "uninitialized read reported" true
    (has_error
       (function
         | Aprof_tools.Memcheck_lite.Uninitialized_read _ -> true | _ -> false)
       t)

let test_memcheck_use_after_free () =
  let buggy =
    let* a = alloc 4 in
    let* () = write a 1 in
    let* () = dealloc a 4 in
    let* _ = read a in
    return ()
  in
  let r = run [ buggy ] in
  let t = memcheck_on r.Interp.trace in
  Alcotest.(check bool) "use after free reported" true
    (has_error
       (function Aprof_tools.Memcheck_lite.Invalid_read _ -> true | _ -> false)
       t)

let test_memcheck_double_free_and_leak () =
  let buggy =
    let* a = alloc 4 in
    let* () = write a 1 in
    let* () = dealloc a 4 in
    let* () = dealloc a 4 in
    let* _leaked = alloc 8 in
    return ()
  in
  let r = run [ buggy ] in
  let t = memcheck_on r.Interp.trace in
  Alcotest.(check bool) "double free reported" true
    (has_error
       (function Aprof_tools.Memcheck_lite.Invalid_free _ -> true | _ -> false)
       t);
  Alcotest.(check int) "one leak" 1
    (List.length (Aprof_tools.Memcheck_lite.leaks t))

let test_memcheck_clean_program () =
  let r =
    Aprof_workloads.Workload.run
      (Aprof_workloads.Sorting.merge_sort_run ~n:40 ~seed:3)
      ~seed:3
  in
  let t = memcheck_on r.Interp.trace in
  (* A random array is written before sorting reads it, the temp buffer is
     written by the copy phase first: no errors. *)
  Alcotest.(check (list string)) "no errors" []
    (List.map
       (fun e -> Format.asprintf "%a" Aprof_tools.Memcheck_lite.pp_error e)
       (Aprof_tools.Memcheck_lite.errors t))

(* --- callgrind ------------------------------------------------------- *)

let test_callgrind_inclusive_exclusive () =
  let r =
    Aprof_workloads.Workload.run
      (Aprof_workloads.Mysql_sim.select_sweep ~row_counts:[ 50; 100 ] ~seed:3)
      ~seed:3
  in
  let t = Aprof_tools.Callgrind_lite.create () in
  Aprof_trace.Trace.replay r.Interp.trace (Aprof_tools.Callgrind_lite.on_batch t);
  let costs = Aprof_tools.Callgrind_lite.routine_costs t in
  (* inclusive >= exclusive everywhere *)
  List.iter
    (fun (c : Aprof_tools.Callgrind_lite.routine_costs) ->
      Alcotest.(check bool) "incl >= excl" true (c.inclusive >= c.exclusive))
    costs;
  (* the root routine's inclusive cost equals the whole trace cost *)
  let total =
    let acc = ref 0 in
    Aprof_trace.Trace.replay r.Interp.trace
      (Event.Batch.iter (fun tag _ arg _ ->
           acc := !acc + Aprof_core.Cost_model.cost_increment ~tag ~arg));
    !acc
  in
  let root =
    List.find
      (fun (c : Aprof_tools.Callgrind_lite.routine_costs) -> c.calls = 1)
      costs
  in
  Alcotest.(check int) "root inclusive = total cost" total root.inclusive;
  (* sum of exclusive costs equals total too *)
  let sum_excl =
    List.fold_left
      (fun acc (c : Aprof_tools.Callgrind_lite.routine_costs) ->
        acc + c.exclusive)
      0 costs
  in
  Alcotest.(check int) "sum exclusive = total" total sum_excl

let test_callgrind_edges () =
  let r =
    Aprof_workloads.Workload.run
      (Aprof_workloads.Mysql_sim.select_sweep ~row_counts:[ 50 ] ~seed:3)
      ~seed:3
  in
  let t = Aprof_tools.Callgrind_lite.create () in
  Aprof_trace.Trace.replay r.Interp.trace (Aprof_tools.Callgrind_lite.on_batch t);
  let edges = Aprof_tools.Callgrind_lite.edges t in
  let tbl = r.Interp.routines in
  let id n = Option.get (Aprof_trace.Routine_table.find tbl n) in
  let edge =
    List.find
      (fun (e : Aprof_tools.Callgrind_lite.edge_costs) ->
        e.caller = id "handle_query" && e.callee = id "mysql_select")
      edges
  in
  Alcotest.(check int) "one select per query" 1 edge.count

(* --- nulgrind and harness -------------------------------------------- *)

let test_nulgrind_counts () =
  let r =
    Aprof_workloads.Workload.run
      (Aprof_workloads.Patterns.stream_reader ~n:10)
      ~seed:3
  in
  let t = Aprof_tools.Nulgrind.create () in
  Aprof_trace.Trace.replay r.Interp.trace (Aprof_tools.Nulgrind.on_batch t);
  Alcotest.(check int) "event count" (Aprof_trace.Trace.length r.Interp.trace)
    (Aprof_tools.Nulgrind.events t)

let test_harness_measures () =
  let r =
    Aprof_workloads.Workload.run
      (Aprof_workloads.Patterns.producer_consumer ~n:200)
      ~seed:3
  in
  let ms =
    Aprof_tools.Harness.measure ~min_time:0.01 ~trace:r.Interp.trace
      ~program_words:r.Interp.memory_high_water
      Aprof_tools.Harness.tools
  in
  Alcotest.(check int) "six tools" 6 (List.length ms);
  List.iter
    (fun (m : Aprof_tools.Harness.measurement) ->
      Alcotest.(check bool) (m.tool ^ " positive time") true (m.time_s > 0.);
      Alcotest.(check bool) (m.tool ^ " space overhead >= 1") true
        (m.space_overhead >= 1.))
    ms

let test_vclock_laws () =
  let module V = Aprof_tools.Vclock in
  let a = V.create () and b = V.create () in
  V.set a 0 3;
  V.set a 2 1;
  V.set b 0 1;
  V.set b 1 5;
  Alcotest.(check bool) "not leq" false (V.leq a b);
  V.join b a;
  Alcotest.(check bool) "leq after join" true (V.leq a b);
  Alcotest.(check int) "join is pointwise max" 5 (V.get b 1);
  Alcotest.(check int) "join takes larger" 3 (V.get b 0);
  Alcotest.(check int) "tick increments" 4 (V.tick a 0);
  let c = V.copy a in
  ignore (V.tick a 0);
  Alcotest.(check int) "copy is independent" 4 (V.get c 0)

let suite =
  [
    Alcotest.test_case "helgrind: clean producer-consumer" `Quick
      test_helgrind_clean_producer_consumer;
    Alcotest.test_case "helgrind: clean workloads" `Slow
      test_helgrind_clean_workloads;
    Alcotest.test_case "helgrind: detects race" `Quick test_helgrind_detects_race;
    Alcotest.test_case "helgrind: mutex prevents race" `Quick
      test_helgrind_lock_prevents_race;
    Alcotest.test_case "helgrind: out-of-range tid rejected" `Quick
      test_helgrind_rejects_bad_tid;
    Alcotest.test_case "memcheck: uninitialized" `Quick test_memcheck_uninitialized;
    Alcotest.test_case "memcheck: use after free" `Quick
      test_memcheck_use_after_free;
    Alcotest.test_case "memcheck: double free and leak" `Quick
      test_memcheck_double_free_and_leak;
    Alcotest.test_case "memcheck: clean program" `Quick test_memcheck_clean_program;
    Alcotest.test_case "callgrind: cost invariants" `Quick
      test_callgrind_inclusive_exclusive;
    Alcotest.test_case "callgrind: edges" `Quick test_callgrind_edges;
    Alcotest.test_case "nulgrind: counts" `Quick test_nulgrind_counts;
    Alcotest.test_case "harness: measurements" `Quick test_harness_measures;
    Alcotest.test_case "vclock laws" `Quick test_vclock_laws;
  ]
