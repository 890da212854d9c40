(* The VM's work-stealing deque (owner-LIFO push/pop, steal-half takes
   the oldest half, nothing lost across growth and wraparound), and the
   sharded replay engine under skewed chunk distributions — a hot thread
   owning ~90% of the events, single-chunk traces, more jobs than chunks
   or threads, and the empty trace. *)

open Helpers
module Par = Aprof_util.Par
module Deque = Aprof_vm.Scheduler.Deque
module Tool = Aprof_tools.Tool
module Interp = Aprof_vm.Interp

let drain d =
  let rec go acc =
    match Deque.pop d with
    | None -> acc (* newest popped first, so [acc] ends oldest-first *)
    | Some x -> go (x :: acc)
  in
  go []

let test_deque_lifo () =
  let d = Deque.create () in
  Alcotest.(check (option int)) "empty pop" None (Deque.pop d);
  Alcotest.(check int) "empty length" 0 (Deque.length d);
  List.iter (Deque.push d) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "length" 5 (Deque.length d);
  Alcotest.(check (list int)) "owner pops newest first" [ 1; 2; 3; 4; 5 ]
    (drain d);
  Alcotest.(check (option int)) "drained" None (Deque.pop d)

let test_deque_steal_half () =
  let d = Deque.create () in
  Alcotest.(check (list int)) "steal from empty" [] (Deque.steal_half d);
  List.iter (Deque.push d) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "oldest half, oldest first" [ 1; 2; 3 ]
    (Deque.steal_half d);
  Alcotest.(check int) "two left" 2 (Deque.length d);
  Alcotest.(check (option int)) "owner end untouched" (Some 5)
    (Deque.pop d);
  Alcotest.(check (list int)) "steal of a singleton" [ 4 ]
    (Deque.steal_half d);
  Alcotest.(check int) "empty again" 0 (Deque.length d)

(* Growth and ring wraparound: interleave pushes and steals past the
   initial capacity and check the item multiset is preserved. *)
let test_deque_wrap_grow () =
  let d = Deque.create () in
  for i = 1 to 100 do
    Deque.push d i
  done;
  let stolen = Deque.steal_half d in
  Alcotest.(check int) "stole 50" 50 (List.length stolen);
  for i = 101 to 120 do
    Deque.push d i
  done;
  let all = List.sort compare (stolen @ drain d) in
  Alcotest.(check (list int))
    "no item lost or duplicated"
    (List.init 120 (fun i -> i + 1))
    all

(* --- the engine under skewed chunk distributions ----------------------- *)

(* A trace whose thread 0 carries the overwhelming majority of the
   events, interleaved in random bursts with three light threads: the
   LPT partition gives thread 0 a shard of its own, and every light
   shard must still see the hot thread's broadcast events. *)
let skewed_trace () =
  let st = Random.State.make [| 0xbeef |] in
  let stream tid events_per_thread =
    Gen_trace.gen_thread_stream st
      { Gen_trace.default_params with events_per_thread }
      tid 4
  in
  let streams =
    Array.init 4 (fun tid -> ref (stream tid (if tid = 0 then 6000 else 80)))
  in
  let trace = Trace.create () in
  let current = ref (-1) in
  let nonempty () =
    Array.to_list streams
    |> List.mapi (fun i s -> (i, s))
    |> List.filter (fun (_, s) -> !s <> [])
  in
  let rec go () =
    match nonempty () with
    | [] -> ()
    | live ->
      let i, s = List.nth live (Random.State.int st (List.length live)) in
      let burst = 1 + Random.State.int st 16 in
      for _ = 1 to burst do
        match !s with
        | [] -> ()
        | e :: rest ->
          if i <> !current then begin
            Trace.push trace (Event.Switch_thread { tid = i });
            current := i
          end;
          Trace.push trace e;
          s := rest
      done;
      go ()
  in
  go ();
  trace

(* [chunks], when given, pins the recorded file's chunk count: the
   shape the case is about. *)
let engine_drms_equal ?(chunk_bytes = 256) ?chunks name trace jobs =
  with_shards ~chunk_bytes trace (fun shards ->
      Option.iter
        (fun k ->
          Alcotest.(check int) (name ^ ": chunks") k
            (Array.length shards.Tool.Shards.chunks))
        chunks;
      let pool = Par.create ~jobs () in
      let st, n, _names =
        Tool.replay_parallel ~pool ~jobs ~shards
          (module Aprof_tools.Aprof_adapters.Drms)
      in
      Alcotest.(check int) (name ^ ": unique events") (Trace.length trace) n;
      check_profiles_equal
        (name ^ ": parallel = sequential")
        (run_drms trace)
        (Aprof_core.Drms_profiler.finish st))

let test_engine_hot_thread () =
  let trace = skewed_trace () in
  engine_drms_equal "hot thread, -j4" trace 4;
  (* And the order-independent mode on the same skew: every chunk is
     claimed exactly once, so the count is the trace length. *)
  let pool = Par.create ~jobs:4 () in
  let st, n, _ =
    with_shards ~chunk_bytes:256 trace (fun shards ->
        Tool.replay_parallel ~pool ~jobs:4 ~shards
          (module Aprof_tools.Nulgrind))
  in
  Alcotest.(check int) "nulgrind count" (Trace.length trace) n;
  Alcotest.(check int)
    "nulgrind state" (Trace.length trace)
    (Aprof_tools.Nulgrind.events st)

let test_engine_single_chunk () =
  let trace = skewed_trace () in
  engine_drms_equal ~chunk_bytes:max_int ~chunks:1 "single chunk, -j4" trace 4

let test_engine_more_jobs_than_chunks () =
  let trace = skewed_trace () in
  (* The trace's payload bytes, off a one-chunk recording. *)
  let bytes =
    with_shards ~chunk_bytes:max_int trace (fun shards ->
        shards.Tool.Shards.chunks.(0).Aprof_trace.Trace_codec.bytes)
  in
  engine_drms_equal ~chunk_bytes:(1 + (bytes / 2)) ~chunks:2 "2 chunks, -j8"
    trace 8

let test_engine_more_jobs_than_threads () =
  (* Two threads, six jobs: only two thread shards exist. *)
  let open Aprof_vm.Program in
  let prog =
    let* a = alloc 4 in
    let* () = write a 1 in
    let child =
      let* _ = read a in
      let* () = call "leaf" (write (a + 1) 2) in
      return ()
    in
    let* t = spawn child in
    let* _ = read (a + 1) in
    let* () = join t in
    dealloc a 4
  in
  let r =
    Interp.run
      {
        Interp.scheduler =
          Aprof_vm.Scheduler.Random_preemptive { min_slice = 1; max_slice = 4 };
        seed = 9;
        devices = [];
        max_events = 100_000;
        reuse_freed_memory = false;
      }
      [ prog ]
  in
  engine_drms_equal ~chunk_bytes:8 "2 threads, -j6" r.Interp.trace 6

let test_engine_empty_trace () =
  let trace = Trace.create () in
  engine_drms_equal ~chunks:0 "empty trace, -j4" trace 4

let suite =
  [
    Alcotest.test_case "deque: owner LIFO" `Quick test_deque_lifo;
    Alcotest.test_case "deque: steal-half semantics" `Quick
      test_deque_steal_half;
    Alcotest.test_case "deque: growth and wraparound" `Quick
      test_deque_wrap_grow;
    Alcotest.test_case "engine: hot thread owns 90% of chunks" `Quick
      test_engine_hot_thread;
    Alcotest.test_case "engine: single-chunk trace" `Quick
      test_engine_single_chunk;
    Alcotest.test_case "engine: more jobs than chunks" `Quick
      test_engine_more_jobs_than_chunks;
    Alcotest.test_case "engine: more jobs than threads" `Quick
      test_engine_more_jobs_than_threads;
    Alcotest.test_case "engine: empty trace" `Quick test_engine_empty_trace;
  ]
