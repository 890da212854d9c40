(* Mergeable profiler state and the sharded parallel replay engine.

   Profile.merge must be a commutative monoid (associative, commutative,
   Profile.create () as identity) on profiles produced from real traces,
   and replaying through [Tool.replay_parallel] at several jobs must
   agree with sequential replay for every thread-shardable tool — the
   differential that licenses `aprof replay -j N`. *)

open Helpers
module Profile = Aprof_core.Profile
module Stream = Aprof_trace.Trace_stream
module Tool = Aprof_tools.Tool
module Par = Aprof_util.Par
module Workload = Aprof_workloads.Workload
module Registry = Aprof_workloads.Registry
module Interp = Aprof_vm.Interp

(* --- Profile.merge laws ---------------------------------------------- *)

let close a b = Float.abs (a -. b) <= 1e-9 *. (1. +. Float.abs a +. Float.abs b)

(* Exact agreement on points, activations, and op counters; float
   aggregates up to accumulation-order rounding. *)
let agree p q =
  signature p = signature q
  && ops_signature p = ops_signature q
  && List.for_all
       (fun k ->
         match (Profile.data p k, Profile.data q k) with
         | Some a, Some b ->
           close a.Profile.sum_rms b.Profile.sum_rms
           && close a.Profile.sum_drms b.Profile.sum_drms
           && close a.Profile.total_cost b.Profile.total_cost
         | _ -> false)
       (Profile.keys p)

let merge_commutative =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"Profile.merge is commutative" ~count:40
       QCheck2.Gen.(pair (Gen_trace.gen ()) (Gen_trace.gen ()))
       (fun (t1, t2) ->
         let a = run_drms t1 and b = run_drms t2 in
         agree (Profile.merge a b) (Profile.merge b a)))

let merge_associative =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"Profile.merge is associative" ~count:40
       QCheck2.Gen.(triple (Gen_trace.gen ()) (Gen_trace.gen ()) (Gen_trace.gen ()))
       (fun (t1, t2, t3) ->
         let a = run_drms t1 and b = run_drms t2 and c = run_drms t3 in
         agree
           (Profile.merge (Profile.merge a b) c)
           (Profile.merge a (Profile.merge b c))))

let merge_identity =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"Profile.create is the merge identity" ~count:40
       (Gen_trace.gen ())
       (fun t ->
         let p = run_drms t in
         agree (Profile.merge p (Profile.create ())) p
         && agree (Profile.merge (Profile.create ()) p) p))

(* --- parallel replay = sequential replay ------------------------------ *)

let workloads = [ "mysqlslap"; "dedup" ]

let registry_trace name =
  let spec = Option.get (Registry.find name) in
  let r =
    Workload.run_spec
      ~scheduler:
        (Aprof_vm.Scheduler.Random_preemptive { min_slice = 4; max_slice = 32 })
      spec ~threads:3 ~scale:120 ~seed:5
  in
  r.Interp.trace

(* Synthetic chunking over the in-memory trace (small chunks, so every
   trace spans many chunks and the deques actually migrate work); the
   engine's shard filter does the partitioning. *)
let replay_jobs (type a) ?(chunk_events = 256)
    (module M : Tool.S with type state = a) trace jobs : a * int =
  let pool = Par.create ~jobs () in
  let shards = Tool.Shards.of_trace ~chunk_events trace in
  let st, n, _names = Tool.replay_parallel ~pool ~jobs ~shards (module M) in
  (st, n)

let test_parallel_nulgrind () =
  List.iter
    (fun name ->
      let trace = registry_trace name in
      let module M = Aprof_tools.Nulgrind in
      let st1, n1 = replay_jobs (module M) trace 1 in
      let st3, n3 = replay_jobs (module M) trace 3 in
      (* No broadcast events: each event reaches exactly one worker. *)
      Alcotest.(check int) (name ^ ": delivered once each") n1 n3;
      Alcotest.(check int)
        (name ^ ": merged count = sequential count")
        (Aprof_tools.Nulgrind.events st1)
        (Aprof_tools.Nulgrind.events st3);
      Alcotest.(check int) (name ^ ": whole trace") (Trace.length trace)
        (Aprof_tools.Nulgrind.events st3))
    workloads

let test_parallel_callgrind () =
  List.iter
    (fun name ->
      let trace = registry_trace name in
      let module C = Aprof_tools.Callgrind_lite in
      let st1, _ = replay_jobs (module C) trace 1 in
      let st3, _ = replay_jobs (module C) trace 3 in
      (* Hashtable fold order is not deterministic: compare sorted. *)
      let costs t = List.sort compare (C.routine_costs t) in
      let edges t = List.sort compare (C.edges t) in
      Alcotest.(check bool)
        (name ^ ": routine costs agree")
        true
        (costs st1 = costs st3);
      Alcotest.(check bool) (name ^ ": edges agree") true (edges st1 = edges st3))
    workloads

(* A multi-threaded program seeded with memory bugs: errors found in
   different workers' shards must union into the sequential report. *)
let buggy_trace () =
  let open Aprof_vm.Program in
  let prog =
    let* a = alloc 8 in
    let worker base =
      let* _ = read (a + base) in
      (* uninitialized *)
      let* () = write (a + base) 1 in
      let* _ = read (a + base) in
      return ()
    in
    let* t1 = spawn (worker 0) in
    let* t2 = spawn (worker 2) in
    let* () = join t1 in
    let* () = join t2 in
    let* () = dealloc a 8 in
    let* _ = read a in
    (* use after free *)
    return ()
  in
  let r =
    Interp.run
      {
        Interp.scheduler =
          Aprof_vm.Scheduler.Random_preemptive { min_slice = 1; max_slice = 8 };
        seed = 3;
        devices = [];
        max_events = 1_000_000;
        reuse_freed_memory = false;
      }
      [ prog ]
  in
  r.Interp.trace

let test_parallel_memcheck () =
  let module M = Aprof_tools.Memcheck_lite in
  List.iter
    (fun (name, trace) ->
      let st1, _ = replay_jobs (module M) trace 1 in
      let st3, _ = replay_jobs (module M) trace 3 in
      let errs t =
        List.sort compare
          (List.map (Format.asprintf "%a" M.pp_error) (M.errors t))
      in
      Alcotest.(check (list string)) (name ^ ": errors agree") (errs st1)
        (errs st3);
      Alcotest.(check bool) (name ^ ": leaks agree") true
        (List.sort compare (M.leaks st1) = List.sort compare (M.leaks st3)))
    [
      ("mysqlslap", registry_trace "mysqlslap");
      ("seeded bugs", buggy_trace ());
    ]

let test_parallel_rms () =
  List.iter
    (fun name ->
      let trace = registry_trace name in
      let st3, _ =
        replay_jobs (module Aprof_tools.Aprof_adapters.Rms) trace 3
      in
      let p3 = Aprof_core.Rms_profiler.finish st3 in
      let p1 = run_rms trace in
      check_profiles_equal (name ^ ": rms parallel = sequential") p1 p3;
      check_ops_equal (name ^ ": op counters agree") p1 p3)
    workloads

let test_parallel_drms () =
  List.iter
    (fun name ->
      let trace = registry_trace name in
      let st3, n3 =
        replay_jobs (module Aprof_tools.Aprof_adapters.Drms) trace 3
      in
      Alcotest.(check int)
        (name ^ ": unique events = trace length")
        (Trace.length trace) n3;
      let p3 = Aprof_core.Drms_profiler.finish st3 in
      let p1 = run_drms trace in
      check_profiles_equal (name ^ ": drms parallel = sequential") p1 p3;
      check_ops_equal (name ^ ": op counters agree") p1 p3)
    workloads

let test_parallel_naive () =
  List.iter
    (fun name ->
      let trace = registry_trace name in
      let st3, _ =
        replay_jobs (module Aprof_tools.Aprof_adapters.Naive) trace 3
      in
      let p3 = Aprof_core.Naive_drms.finish st3 in
      let p1 = run_naive trace in
      check_profiles_equal (name ^ ": naive parallel = sequential") p1 p3)
    workloads

(* --- sharded drms merge laws ------------------------------------------ *)

module Drms = Aprof_core.Drms_profiler
module Event = Aprof_trace.Event

(* A drms shard built by hand: the profiler owns the threads [owns]
   selects and is fed its own threads' events plus every
   broadcast-tagged event, in trace order — exactly the substream
   {!Tool.replay_parallel} delivers. *)
let drms_shard ?overflow_limit owns trace =
  let p = Drms.create ?overflow_limit () in
  Drms.set_owner p owns;
  Trace.iter
    (fun ev ->
      let tag = Event.Batch.tag_of_event ev in
      if (Drms.shard_broadcast lsr tag) land 1 = 1 || owns (Event.tid ev) then
        feed (Drms.on_batch p) [ ev ])
    trace;
  p

let shard_agree msg expected merged =
  check_profiles_equal msg expected merged;
  check_ops_equal (msg ^ " (ops)") expected merged

(* The shard merge is commutative: merging odd-owner into even-owner
   equals the reverse, and both equal sequential replay.  Run once with
   a tiny overflow limit, so the law holds up to (repeated) timestamp
   renumbering of each shard's clock. *)
let sharded_merge_commutative =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"sharded drms merge is commutative" ~count:25
       (Gen_trace.gen ())
       (fun t ->
         let sequential = run_drms t in
         let even tid = tid mod 2 = 0 and odd tid = tid mod 2 = 1 in
         List.iter
           (fun overflow_limit ->
             let shard owns = drms_shard ?overflow_limit owns t in
             let a = shard even and b = shard odd in
             Drms.merge_into ~into:a b;
             shard_agree "even <- odd = sequential" sequential
               (Drms.profile a);
             let a = shard even and b = shard odd in
             Drms.merge_into ~into:b a;
             shard_agree "odd <- even = sequential" sequential
               (Drms.profile b))
           [ None; Some 64 ];
         true))

let sharded_merge_associative =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"sharded drms merge is associative" ~count:25
       (Gen_trace.gen ())
       (fun t ->
         let sequential = run_drms t in
         let shard r = drms_shard (fun tid -> tid mod 3 = r) t in
         (* (a <- b) <- c ... *)
         let a = shard 0 and b = shard 1 and c = shard 2 in
         Drms.merge_into ~into:a b;
         Drms.merge_into ~into:a c;
         shard_agree "(a+b)+c = sequential" sequential (Drms.profile a);
         (* ... versus a <- (b <- c). *)
         let a = shard 0 and b = shard 1 and c = shard 2 in
         Drms.merge_into ~into:b c;
         Drms.merge_into ~into:a b;
         shard_agree "a+(b+c) = sequential" sequential (Drms.profile a);
         true))

let sharded_merge_identity =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"empty shard is the drms merge identity"
       ~count:25 (Gen_trace.gen ())
       (fun t ->
         let sequential = run_drms t in
         (* A shard owning no thread still replays the broadcast events;
            its profile is empty and merging it changes nothing. *)
         let all = drms_shard (fun _ -> true) t in
         let none = drms_shard (fun _ -> false) t in
         Drms.merge_into ~into:all none;
         shard_agree "all <- none = sequential" sequential (Drms.profile all);
         let all = drms_shard (fun _ -> true) t in
         let none = drms_shard (fun _ -> false) t in
         Drms.merge_into ~into:none all;
         shard_agree "none <- all = sequential" sequential
           (Drms.profile none);
         true))

(* Merged-wts renumbering inside shards must preserve the paper's
   rms-vs-drms distinction: the producer-consumer consumer still shows
   rms = 1, drms = n after a parallel replay whose shards renumbered
   their clocks many times mid-trace. *)
let test_renumbering_preserves_distinction () =
  let n = 25 in
  let result =
    run_workload (Aprof_workloads.Patterns.producer_consumer ~n)
  in
  let trace = result.Interp.trace in
  let tbl = result.Interp.routines in
  let module M = struct
    include Aprof_tools.Aprof_adapters.Drms

    let create () = Drms.create ~overflow_limit:32 ()
  end in
  let st, _ = replay_jobs ~chunk_events:64 (module M) trace 3 in
  Alcotest.(check bool) "shard renumbered at least once" true
    (Drms.renumber_count st > 0);
  let profile = Drms.finish st in
  let consumer = routine_id tbl "consumer" in
  let keys =
    List.filter (fun k -> k.Profile.routine = consumer) (Profile.keys profile)
  in
  match keys with
  | [ k ] ->
    Alcotest.(check (list int))
      "consumer rms = 1" [ 1 ]
      (rms_values profile ~tid:k.Profile.tid ~routine:consumer);
    Alcotest.(check (list int))
      "consumer drms = n" [ n ]
      (drms_values profile ~tid:k.Profile.tid ~routine:consumer)
  | _ -> Alcotest.fail "expected exactly one consumer activation key"

(* --- the job pool itself ---------------------------------------------- *)

let test_par_map () =
  List.iter
    (fun jobs ->
      let pool = Par.create ~jobs () in
      Alcotest.(check int) "jobs" jobs (Par.jobs pool);
      let xs = Array.init 37 (fun i -> i) in
      Alcotest.(check (array int))
        (Printf.sprintf "map at %d jobs" jobs)
        (Array.map (fun x -> x * x) xs)
        (Par.map pool (fun x -> x * x) xs))
    [ 1; 2; 3 ]

let test_par_exceptions () =
  let pool = Par.create ~jobs:2 () in
  (match
     Par.run pool
       [|
         (fun () -> ());
         (fun () -> failwith "b");
         (fun () -> failwith "c");
       |]
   with
  | () -> Alcotest.fail "expected an exception"
  | exception Failure m ->
    Alcotest.(check string) "lowest-index failure wins" "b" m);
  match Par.create ~jobs:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "jobs = 0 accepted"

let suite =
  [
    merge_commutative;
    merge_associative;
    merge_identity;
    Alcotest.test_case "parallel nulgrind = sequential" `Quick
      test_parallel_nulgrind;
    Alcotest.test_case "parallel callgrind = sequential" `Quick
      test_parallel_callgrind;
    Alcotest.test_case "parallel memcheck = sequential" `Quick
      test_parallel_memcheck;
    Alcotest.test_case "parallel rms = sequential" `Quick test_parallel_rms;
    Alcotest.test_case "parallel drms = sequential" `Quick test_parallel_drms;
    Alcotest.test_case "parallel naive = sequential" `Quick test_parallel_naive;
    sharded_merge_commutative;
    sharded_merge_associative;
    sharded_merge_identity;
    Alcotest.test_case "renumbering keeps rms < drms on producer-consumer"
      `Quick test_renumbering_preserves_distinction;
    Alcotest.test_case "par: map matches sequential map" `Quick test_par_map;
    Alcotest.test_case "par: deterministic exception" `Quick test_par_exceptions;
  ]
