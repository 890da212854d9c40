(* The work-stealing scheduler: deque invariants (owner-LIFO push/pop,
   steal-half takes the oldest half, nothing lost or duplicated under
   concurrent stealing), the worker loop (continuations requeue,
   exceptions propagate), and the replay engine under the chunk
   distributions that stress stealing — a hot thread owning ~90% of the
   events, single-chunk traces, more jobs than chunks or threads, and
   the empty trace. *)

open Helpers
module Par = Aprof_util.Par
module Ws = Aprof_util.Par.Ws
module Tool = Aprof_tools.Tool
module Interp = Aprof_vm.Interp

let drain d =
  let rec go acc =
    match Ws.Deque.pop d with
    | None -> acc (* newest popped first, so [acc] ends oldest-first *)
    | Some x -> go (x :: acc)
  in
  go []

let test_deque_lifo () =
  let d = Ws.Deque.create () in
  Alcotest.(check (option int)) "empty pop" None (Ws.Deque.pop d);
  Alcotest.(check int) "empty length" 0 (Ws.Deque.length d);
  List.iter (Ws.Deque.push d) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "length" 5 (Ws.Deque.length d);
  Alcotest.(check (list int)) "owner pops newest first" [ 1; 2; 3; 4; 5 ]
    (drain d);
  Alcotest.(check (option int)) "drained" None (Ws.Deque.pop d)

let test_deque_steal_half () =
  let d = Ws.Deque.create () in
  Alcotest.(check (list int)) "steal from empty" [] (Ws.Deque.steal_half d);
  List.iter (Ws.Deque.push d) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "oldest half, oldest first" [ 1; 2; 3 ]
    (Ws.Deque.steal_half d);
  Alcotest.(check int) "two left" 2 (Ws.Deque.length d);
  Alcotest.(check (option int)) "owner end untouched" (Some 5)
    (Ws.Deque.pop d);
  Alcotest.(check (list int)) "steal of a singleton" [ 4 ]
    (Ws.Deque.steal_half d);
  Alcotest.(check int) "empty again" 0 (Ws.Deque.length d)

(* Growth and ring wraparound: interleave pushes and steals past the
   initial capacity and check the item multiset is preserved. *)
let test_deque_wrap_grow () =
  let d = Ws.Deque.create () in
  for i = 1 to 100 do
    Ws.Deque.push d i
  done;
  let stolen = Ws.Deque.steal_half d in
  Alcotest.(check int) "stole 50" 50 (List.length stolen);
  for i = 101 to 120 do
    Ws.Deque.push d i
  done;
  let all = List.sort compare (stolen @ drain d) in
  Alcotest.(check (list int))
    "no item lost or duplicated"
    (List.init 120 (fun i -> i + 1))
    all

(* One pusher and three concurrent thieves hammer a single deque; on the
   Domain backend they genuinely race, on 4.14 they serialize — either
   way every pushed item must end up in exactly one place. *)
let test_deque_concurrent_steal () =
  let d = Ws.Deque.create () in
  let n = 2000 in
  let stolen = Array.init 3 (fun _ -> ref []) in
  let pool = Par.create ~jobs:4 () in
  let pusher () =
    for i = 1 to n do
      Ws.Deque.push d i
    done
  in
  let thief t () =
    let acc = stolen.(t) in
    for _ = 1 to 500 do
      match Ws.Deque.steal_half d with
      | [] -> ()
      | xs -> acc := List.rev_append xs !acc
    done
  in
  Par.run pool (Array.append [| pusher |] (Array.init 3 thief));
  let total =
    drain d @ List.concat_map (fun r -> !r) (Array.to_list stolen)
  in
  Alcotest.(check int) "count preserved" n (List.length total);
  Alcotest.(check (list int))
    "multiset preserved"
    (List.init n (fun i -> i + 1))
    (List.sort compare total)

(* Every item is stepped exactly [rounds] times even though items hop
   between deques: an item is owned by one worker at a time, so the
   plain counters cannot race. *)
let ws_rounds ~seed_worker () =
  let workers = 4 and n = 100 and rounds = 5 in
  let counts = Array.make n 0 in
  let ws = Ws.create ~workers in
  for i = 0 to n - 1 do
    Ws.seed ws ~worker:(seed_worker ~workers i) (i, rounds)
  done;
  let pool = Par.create ~jobs:workers () in
  Ws.run pool ws ~step:(fun ~worker:_ (i, left) ->
      counts.(i) <- counts.(i) + 1;
      if left > 1 then Some (i, left - 1) else None);
  Alcotest.(check (array int))
    "every item stepped exactly rounds times" (Array.make n rounds) counts

let test_ws_spread = ws_rounds ~seed_worker:(fun ~workers i -> i mod workers)

(* All work seeded on worker 0: the other three only make progress by
   stealing, so this hangs or undercounts if stealing is broken. *)
let test_ws_all_on_one = ws_rounds ~seed_worker:(fun ~workers:_ _ -> 0)

let test_ws_exception () =
  let ws = Ws.create ~workers:3 in
  for i = 0 to 20 do
    Ws.seed ws ~worker:(i mod 3) i
  done;
  let pool = Par.create ~jobs:3 () in
  (match
     Ws.run pool ws ~step:(fun ~worker:_ i ->
         if i = 13 then failwith "boom";
         None)
   with
  | () -> Alcotest.fail "expected an exception"
  | exception Failure m -> Alcotest.(check string) "propagated" "boom" m);
  match Ws.create ~workers:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "workers = 0 accepted"

(* --- the engine under skewed chunk distributions ----------------------- *)

(* A trace whose thread 0 carries the overwhelming majority of the
   events, interleaved in random bursts with three light threads: the
   LPT partition gives thread 0 a shard of its own, and that shard's
   chunks must migrate to idle workers for the replay to balance. *)
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

let engine_drms_equal ?(chunk_events = 64) name trace jobs =
  let pool = Par.create ~jobs () in
  let shards = Tool.Shards.of_trace ~chunk_events trace in
  let st, n, _names =
    Tool.replay_parallel ~pool ~jobs ~shards
      (module Aprof_tools.Aprof_adapters.Drms)
  in
  Alcotest.(check int) (name ^ ": unique events") (Trace.length trace) n;
  check_profiles_equal
    (name ^ ": parallel = sequential")
    (run_drms trace)
    (Aprof_core.Drms_profiler.finish st)

let test_engine_hot_thread () =
  let trace = skewed_trace () in
  engine_drms_equal "hot thread, -j4" trace 4;
  (* And the order-independent mode on the same skew: every chunk is
     claimed exactly once, so the count is the trace length. *)
  let pool = Par.create ~jobs:4 () in
  let shards = Tool.Shards.of_trace ~chunk_events:64 trace in
  let st, n, _ =
    Tool.replay_parallel ~pool ~jobs:4 ~shards
      (module Aprof_tools.Nulgrind)
  in
  Alcotest.(check int) "nulgrind count" (Trace.length trace) n;
  Alcotest.(check int)
    "nulgrind state" (Trace.length trace)
    (Aprof_tools.Nulgrind.events st)

let test_engine_single_chunk () =
  let trace = skewed_trace () in
  engine_drms_equal ~chunk_events:10_000_000 "single chunk, -j4" trace 4

let test_engine_more_jobs_than_chunks () =
  let trace = skewed_trace () in
  let chunk_events = 1 + (Trace.length trace / 2) in
  engine_drms_equal ~chunk_events "2 chunks, -j8" trace 8

let test_engine_more_jobs_than_threads () =
  (* Two threads, six workers: only two thread shards exist and the
     other four workers must idle out cleanly. *)
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
  engine_drms_equal ~chunk_events:4 "2 threads, -j6" r.Interp.trace 6

let test_engine_empty_trace () =
  let trace = Trace.create () in
  engine_drms_equal "empty trace, -j4" trace 4

let suite =
  [
    Alcotest.test_case "deque: owner LIFO" `Quick test_deque_lifo;
    Alcotest.test_case "deque: steal-half semantics" `Quick
      test_deque_steal_half;
    Alcotest.test_case "deque: growth and wraparound" `Quick
      test_deque_wrap_grow;
    Alcotest.test_case "deque: concurrent stealing loses nothing" `Quick
      test_deque_concurrent_steal;
    Alcotest.test_case "ws: seeded spread, continuations requeue" `Quick
      test_ws_spread;
    Alcotest.test_case "ws: all work on one deque is stolen" `Quick
      test_ws_all_on_one;
    Alcotest.test_case "ws: exceptions propagate" `Quick test_ws_exception;
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
