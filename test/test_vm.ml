(* The interpreter: determinism, scheduling, synchronization semantics,
   system calls, and error detection. *)

open Aprof_vm.Program
module Interp = Aprof_vm.Interp
module Scheduler = Aprof_vm.Scheduler
module Device = Aprof_vm.Device
module Sync = Aprof_vm.Sync
module Event = Aprof_trace.Event
module Vec = Aprof_util.Vec

let config ?(scheduler = Scheduler.Round_robin { slice = 8 }) ?(seed = 3)
    ?(devices = []) ?(max_events = 1_000_000) () =
  { Interp.scheduler; seed; devices; max_events; reuse_freed_memory = false }

let run ?scheduler ?seed ?devices ?max_events threads =
  Interp.run (config ?scheduler ?seed ?devices ?max_events ()) threads

let lines result =
  Aprof_trace.Trace.to_list result.Interp.trace |> List.map Event.to_line

let test_determinism () =
  let mk () =
    Aprof_workloads.Patterns.producer_consumer ~n:20
  in
  let r1 =
    Aprof_workloads.Workload.run (mk ())
      ~scheduler:(Scheduler.Random_preemptive { min_slice = 4; max_slice = 32 })
      ~seed:9
  in
  let r2 =
    Aprof_workloads.Workload.run (mk ())
      ~scheduler:(Scheduler.Random_preemptive { min_slice = 4; max_slice = 32 })
      ~seed:9
  in
  Alcotest.(check (list string)) "same seed, same trace" (lines r1) (lines r2);
  let r3 =
    Aprof_workloads.Workload.run (mk ())
      ~scheduler:(Scheduler.Random_preemptive { min_slice = 4; max_slice = 32 })
      ~seed:10
  in
  Alcotest.(check bool) "different seed, different trace" true
    (lines r1 <> lines r3)

let all_policies =
  [
    Scheduler.Round_robin { slice = 8 };
    Scheduler.Serialized;
    Scheduler.Random_preemptive { min_slice = 1; max_slice = 16 };
    Scheduler.Work_stealing { workers = 3; slice = 8 };
    Scheduler.Async_io { slice = 8; io_delay = 5 };
  ]

let test_schedulers_well_formed () =
  List.iter
    (fun sched ->
      let r =
        Aprof_workloads.Workload.run
          (Aprof_workloads.Patterns.producer_consumer ~n:15)
          ~scheduler:sched ~seed:5
      in
      Alcotest.(check (list string))
        (Scheduler.policy_name sched ^ " well-formed")
        []
        (Aprof_trace.Trace.well_formed r.Interp.trace))
    ([
       Scheduler.Round_robin { slice = 1 };
       Scheduler.Round_robin { slice = 1000 };
       Scheduler.Random_preemptive { min_slice = 1; max_slice = 4 };
       Scheduler.Work_stealing { workers = 2; slice = 1 };
       Scheduler.Async_io { slice = 1; io_delay = 1 };
     ]
    @ all_policies)

(* Same seed must replay a byte-identical trace under every policy — the
   property the golden traces and committed BENCH files rest on. *)
let test_policies_deterministic () =
  List.iter
    (fun sched ->
      let go () =
        Aprof_workloads.Workload.run
          (Aprof_workloads.Patterns.producer_consumer ~n:25)
          ~scheduler:sched ~seed:11
      in
      Alcotest.(check (list string))
        (Scheduler.policy_name sched ^ " deterministic")
        (lines (go ())) (lines (go ())))
    all_policies

(* Regression for the Serialized slice sentinel: it used to be [max_int],
   so any interpreter arithmetic of the shape [events + slice] wrapped to
   a negative budget.  The clamp guarantees headroom. *)
let test_serialized_slice_clamped () =
  let t = Scheduler.create Scheduler.Serialized (Aprof_util.Rng.create 1) in
  Alcotest.(check int) "serialized slice is the sentinel" Scheduler.max_slice
    (Scheduler.slice t);
  Alcotest.(check bool) "sentinel leaves additive headroom" true
    (Scheduler.max_slice < max_int / 2);
  Alcotest.(check bool) "sentinel + event budget cannot wrap" true
    (Scheduler.max_slice + 1_000_000_000 > 0)

let test_create_validation () =
  let invalid p =
    try
      ignore (Scheduler.create p (Aprof_util.Rng.create 1));
      false
    with Invalid_argument _ -> true
  in
  List.iter
    (fun (label, p) -> Alcotest.(check bool) label true (invalid p))
    [
      ("zero rr slice", Scheduler.Round_robin { slice = 0 });
      ( "oversized rr slice",
        Scheduler.Round_robin { slice = Scheduler.max_slice + 1 } );
      ( "inverted random range",
        Scheduler.Random_preemptive { min_slice = 5; max_slice = 4 } );
      ("single ws worker", Scheduler.Work_stealing { workers = 1; slice = 8 });
      ("zero async delay", Scheduler.Async_io { slice = 8; io_delay = 0 })
    ]

let test_memory_and_alloc () =
  let out = ref (-1) in
  let prog =
    let* a = alloc 4 in
    let* b = alloc 2 in
    let* () = write (a + 3) 7 in
    let* v = read (a + 3) in
    let* unset = read b in
    let* () = compute 1 in
    out := v * 10 + unset;
    return ()
  in
  let _ = run [ prog ] in
  Alcotest.(check int) "write/read and zero default" 70 !out

let test_join_and_spawn () =
  let order = ref [] in
  let prog =
    let* child =
      spawn
        (let* () = compute 1 in
         order := `Child :: !order;
         return ())
    in
    let* () = join child in
    order := `Parent :: !order;
    return ()
  in
  let _ = run [ prog ] in
  Alcotest.(check bool) "child completes before joined parent continues" true
    (!order = [ `Parent; `Child ])

let test_deadlock_detection () =
  let prog =
    let* s = sem_create 0 in
    sem_wait s
  in
  Alcotest.(check bool) "deadlock raises" true
    (try
       ignore (run [ prog ]);
       false
     with Interp.Run_error msg -> String.length msg > 0)

let test_unbalanced_call () =
  (* Build a body that enters a routine and never leaves by using the raw
     constructor, which the combinators normally prevent. *)
  let prog = unsafe_of_prog (Enter ("broken", fun () -> Halt)) in
  Alcotest.(check bool) "unbalanced call raises" true
    (try
       ignore (Interp.run (config ()) [ prog ]);
       false
     with Interp.Run_error _ -> true)

let test_event_budget () =
  let prog = while_ (fun () -> return true) (compute 1) in
  Alcotest.(check bool) "event budget raises" true
    (try
       ignore (run ~max_events:500 [ prog ]);
       false
     with Interp.Run_error _ -> true)

let test_sys_read_eof () =
  let got = ref [] in
  let prog =
    let* fd = sys_open "f" in
    let* buf = alloc 4 in
    let* a = sys_read fd buf 4 in
    let* b = sys_read fd buf 4 in
    let* c = sys_read fd buf 4 in
    got := [ a; b; c ];
    return ()
  in
  let dev = Device.file [| 1; 2; 3; 4; 5; 6 |] in
  let _ = run ~devices:[ ("f", dev) ] [ prog ] in
  Alcotest.(check (list int)) "reads then EOF" [ 4; 2; 0 ] !got

let test_sys_pread_isolated () =
  let got = ref (-1) in
  let prog =
    let* fd = sys_open "f" in
    let* buf = alloc 2 in
    let* _ = sys_read fd buf 2 in
    (* cursor at 2 *)
    let* _ = sys_pread fd buf 2 ~pos:4 in
    let* v = read buf in
    let* _ = sys_read fd buf 1 in
    (* cursor must still be at 2 *)
    let* w = read buf in
    got := (v * 100) + w;
    return ()
  in
  let dev = Device.file [| 10; 11; 12; 13; 14; 15 |] in
  let _ = run ~devices:[ ("f", dev) ] [ prog ] in
  Alcotest.(check int) "pread does not move cursor" 1412 !got

let test_unknown_device () =
  let prog =
    let* _ = sys_open "nope" in
    return ()
  in
  Alcotest.(check bool) "unknown device raises" true
    (try
       ignore (run [ prog ]);
       false
     with Interp.Run_error _ -> true)

let test_channel_fifo () =
  let received = ref [] in
  let n = 30 in
  let prog =
    let* ch = Sync.Channel.create 3 in
    let* producer = spawn (for_ 1 n (fun i -> Sync.Channel.send ch i)) in
    let* () =
      for_ 1 n (fun _ ->
          let* v = Sync.Channel.recv ch in
          received := v :: !received;
          return ())
    in
    join producer
  in
  let _ =
    run ~scheduler:(Scheduler.Random_preemptive { min_slice = 1; max_slice = 7 })
      [ prog ]
  in
  Alcotest.(check (list int)) "FIFO order" (List.init n (fun i -> i + 1))
    (List.rev !received)

let test_try_recv () =
  let seen = ref [] in
  let prog =
    let* ch = Sync.Channel.create 2 in
    let* a = Sync.Channel.try_recv ch in
    let* () = Sync.Channel.send ch 5 in
    let* b = Sync.Channel.try_recv ch in
    let* c = Sync.Channel.try_recv ch in
    seen := [ a; b; c ];
    return ()
  in
  let _ = run [ prog ] in
  Alcotest.(check (list (option int))) "try_recv" [ None; Some 5; None ] !seen

let test_barrier_rounds () =
  (* Two threads alternate turns across barrier rounds; a violation of
     barrier semantics would let one thread run two rounds in a row. *)
  let log = ref [] in
  let rounds = 5 in
  let coordinator =
    let* bar = barrier_create 2 in
    let worker id =
      for_ 1 rounds (fun r ->
          let* () = compute 1 in
          log := (id, r) :: !log;
          barrier_wait bar)
    in
    let* a = spawn (worker 0) in
    let* b = spawn (worker 1) in
    let* () = join a in
    join b
  in
  let _ =
    run ~scheduler:(Scheduler.Random_preemptive { min_slice = 1; max_slice = 5 })
      [ coordinator ]
  in
  let per_round =
    List.init rounds (fun r ->
        List.filter (fun (_, r') -> r' = r + 1) !log |> List.length)
  in
  Alcotest.(check (list int)) "each round has both threads"
    (List.init rounds (fun _ -> 2))
    per_round

let test_mutex_mutual_exclusion () =
  (* Increment a shared counter 50 times from each of 3 threads under a
     mutex; lost updates would show as a final value below 150. *)
  let final = ref 0 in
  let coordinator =
    let* cell = alloc 1 in
    let* () = write cell 0 in
    let* m = Sync.Mutex.create () in
    let worker =
      for_ 1 50 (fun _ ->
          Sync.Mutex.with_lock m
            (let* v = read cell in
             let* () = yield in
             write cell (v + 1)))
    in
    let* tids = Aprof_workloads.Blocks.spawn_all [ worker; worker; worker ] in
    let* () = Aprof_workloads.Blocks.join_all tids in
    let* v = read cell in
    final := v;
    return ()
  in
  let _ =
    run ~scheduler:(Scheduler.Random_preemptive { min_slice = 1; max_slice = 3 })
      [ coordinator ]
  in
  Alcotest.(check int) "no lost updates" 150 !final

let test_random_int_deterministic () =
  let draws seed =
    let out = ref [] in
    let prog =
      for_ 1 10 (fun _ ->
          let* v = random_int 100 in
          out := v :: !out;
          return ())
    in
    let _ = run ~seed [ prog ] in
    !out
  in
  Alcotest.(check (list int)) "vm rng deterministic" (draws 4) (draws 4)

(* --- qcheck: scheduler queue discipline vs a multiset oracle ---------
   Random op programs drive a scheduler directly through its stateful
   API, mirrored against a bag of queued tids.  Whatever the policy:
   [next] may only return a queued tid, returns each enqueue exactly
   once, is [None] iff nothing is queued; [pending] tracks the bag size;
   [slice] stays within the declared bounds; and the whole run is a
   deterministic function of the creation seed. *)

type sched_op =
  | Spawn of int  (** enqueue this tid *)
  | Turn of { io : bool; back : bool }
      (** run one slice: [next]; optionally [note_io]; requeue the
          thread ([back]) or let it block/exit (not [back]) *)

let gen_sched_program =
  let open QCheck2.Gen in
  let policy =
    oneof
      [
        map (fun s -> Scheduler.Round_robin { slice = s }) (int_range 1 20);
        return Scheduler.Serialized;
        map2
          (fun a b ->
            Scheduler.Random_preemptive
              { min_slice = min a b; max_slice = max a b })
          (int_range 1 20) (int_range 1 20);
        map2
          (fun w s -> Scheduler.Work_stealing { workers = w; slice = s })
          (int_range 2 5) (int_range 1 20);
        map2
          (fun s d -> Scheduler.Async_io { slice = s; io_delay = d })
          (int_range 1 20) (int_range 1 6);
      ]
  in
  let op =
    frequency
      [
        (2, map (fun tid -> Spawn tid) (int_range 0 9));
        ( 5,
          map2 (fun io back -> Turn { io; back }) (int_range 0 1 >|= ( = ) 1)
            (int_range 0 3 >|= fun b -> b > 0) );
      ]
  in
  triple policy (int_range 0 1000) (list_size (int_range 1 80) op)

let print_sched_program (policy, seed, ops) =
  Printf.sprintf "%s seed=%d [%s]"
    (Scheduler.policy_name policy)
    seed
    (String.concat ";"
       (List.map
          (function
            | Spawn tid -> Printf.sprintf "spawn %d" tid
            | Turn { io; back } ->
              Printf.sprintf "turn io=%b back=%b" io back)
          ops))

(* Interpret [ops], checking the oracle at every step; returns the
   sequence of [next] results for the determinism check. *)
let run_sched_program (policy, seed, ops) =
  let t = Scheduler.create policy (Aprof_util.Rng.create seed) in
  let bag = Hashtbl.create 16 in
  let bag_size = ref 0 in
  let bag_add tid =
    Hashtbl.replace bag tid (1 + Option.value ~default:0 (Hashtbl.find_opt bag tid));
    incr bag_size
  in
  let bag_remove tid =
    match Hashtbl.find_opt bag tid with
    | Some n when n > 0 ->
      if n = 1 then Hashtbl.remove bag tid else Hashtbl.replace bag tid (n - 1);
      decr bag_size;
      true
    | _ -> false
  in
  let min_slice, max_slice =
    match policy with
    | Scheduler.Round_robin { slice } -> (slice, slice)
    | Scheduler.Serialized -> (Scheduler.max_slice, Scheduler.max_slice)
    | Scheduler.Random_preemptive { min_slice; max_slice } ->
      (min_slice, max_slice)
    | Scheduler.Work_stealing { slice; _ } -> (slice, slice)
    | Scheduler.Async_io { slice; _ } -> (slice, slice)
  in
  let picks = ref [] in
  let ok = ref true in
  let check b = if not b then ok := false in
  List.iter
    (fun op ->
      (match op with
      | Spawn tid ->
        Scheduler.enqueue t tid;
        bag_add tid
      | Turn { io; back } -> (
        let s = Scheduler.slice t in
        check (s >= min_slice && s <= max_slice);
        match Scheduler.next t with
        | None ->
          picks := (-1) :: !picks;
          check (!bag_size = 0)
        | Some tid ->
          picks := tid :: !picks;
          (* only a queued tid may run, and each enqueue runs once *)
          check (bag_remove tid);
          if io then Scheduler.note_io t tid;
          if back then (
            Scheduler.requeue t tid;
            bag_add tid)));
      check (Scheduler.pending t = !bag_size))
    ops;
  (!ok, List.rev !picks)

let sched_oracle_agrees program = fst (run_sched_program program)

let sched_deterministic program =
  let ok1, picks1 = run_sched_program program in
  let ok2, picks2 = run_sched_program program in
  ok1 && ok2 && picks1 = picks2

let suite =
  [
    Alcotest.test_case "determinism per seed" `Quick test_determinism;
    Alcotest.test_case "policies deterministic" `Quick
      test_policies_deterministic;
    Alcotest.test_case "serialized slice clamped" `Quick
      test_serialized_slice_clamped;
    Alcotest.test_case "policy validation" `Quick test_create_validation;
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500 ~name:"scheduler = multiset oracle"
         ~print:print_sched_program gen_sched_program sched_oracle_agrees);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"scheduler same-seed determinism"
         ~print:print_sched_program gen_sched_program sched_deterministic);
    Alcotest.test_case "schedulers well-formed" `Quick test_schedulers_well_formed;
    Alcotest.test_case "memory and alloc" `Quick test_memory_and_alloc;
    Alcotest.test_case "spawn and join" `Quick test_join_and_spawn;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
    Alcotest.test_case "unbalanced call" `Quick test_unbalanced_call;
    Alcotest.test_case "event budget" `Quick test_event_budget;
    Alcotest.test_case "sys_read EOF" `Quick test_sys_read_eof;
    Alcotest.test_case "sys_pread isolation" `Quick test_sys_pread_isolated;
    Alcotest.test_case "unknown device" `Quick test_unknown_device;
    Alcotest.test_case "channel FIFO" `Quick test_channel_fifo;
    Alcotest.test_case "try_recv" `Quick test_try_recv;
    Alcotest.test_case "barrier rounds" `Quick test_barrier_rounds;
    Alcotest.test_case "mutex exclusion" `Quick test_mutex_mutual_exclusion;
    Alcotest.test_case "vm rng determinism" `Quick test_random_int_deterministic;
  ]
