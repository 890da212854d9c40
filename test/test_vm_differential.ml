(* Differential testing on random *programs*, not just random traces: 50
   seeded random VM programs are executed under each scheduler policy,
   and on every resulting trace (a) the timestamping profiler must agree
   exactly with the naive oracle, and (b) streaming replay — feeding each
   standard tool online while the VM runs — must leave every tool in the
   same state as a materialized replay of the recorded trace.

   Programs are deadlock-free by construction: the only blocking
   operation is [join] on a spawned child, and children always halt. *)

open Helpers
module Program = Aprof_vm.Program
module Interp = Aprof_vm.Interp
module Workload = Aprof_workloads.Workload
module Tool = Aprof_tools.Tool

type op =
  | Read of int
  | Write of int * int
  | Compute of int
  | Yield
  | AllocTouch of int
  | Pread of int
  | Call of string * op list
  | Spawn of op list

let n_addrs = 16
let routines = [| "alpha"; "beta"; "gamma"; "delta"; "epsilon"; "zeta" |]

(* [List.init] does not guarantee an application order, so draw in an
   explicit left-to-right loop: the op tree — and hence the program — is
   a deterministic function of the seed on every OCaml version. *)
let init_ordered n f =
  let rec go i = if i >= n then [] else let x = f () in x :: go (i + 1) in
  go 0

(* Generate the pure op tree first (all randomness up front), then close
   it into a Program.t. *)
let rec gen_ops st ~len ~depth ~spawns =
  init_ordered len (fun () ->
      match Random.State.int st 100 with
      | c when c < 25 -> Read (Random.State.int st n_addrs)
      | c when c < 45 ->
        Write (Random.State.int st n_addrs, Random.State.int st 100)
      | c when c < 55 -> Compute (1 + Random.State.int st 4)
      | c when c < 62 -> Yield
      | c when c < 67 -> AllocTouch (1 + Random.State.int st 4)
      (* Device reads give Async_io's completion queue something to park:
         without I/O the event loop degenerates to round-robin. *)
      | c when c < 70 -> Pread (Random.State.int st 32)
      | c when c < 90 && depth > 0 ->
        Call
          ( routines.(Random.State.int st (Array.length routines)),
            gen_ops st ~len:(1 + Random.State.int st 6) ~depth:(depth - 1)
              ~spawns:(ref 0) )
      | c when c >= 90 && !spawns > 0 ->
        decr spawns;
        Spawn
          (gen_ops st ~len:(2 + Random.State.int st 8) ~depth:(max 0 (depth - 1))
             ~spawns:(ref 0))
      | _ -> Read (Random.State.int st n_addrs))

let rec build (ops : op list) : unit Program.t =
  let open Program in
  match ops with
  | [] -> return ()
  | Read a :: rest ->
    let* _ = read a in
    build rest
  | Write (a, v) :: rest ->
    let* () = write a v in
    build rest
  | Compute n :: rest ->
    let* () = compute n in
    build rest
  | Yield :: rest ->
    let* () = yield in
    build rest
  | AllocTouch n :: rest ->
    let* base = alloc n in
    let* () = for_ 0 (n - 1) (fun i -> write (base + i) i) in
    let* _ = read base in
    let* () = dealloc base n in
    build rest
  | Pread pos :: rest ->
    let* fd = sys_open "dev" in
    let* buf = alloc 2 in
    let* _ = sys_pread fd buf 2 ~pos in
    let* _ = read buf in
    let* () = dealloc buf 2 in
    build rest
  | Call (name, body) :: rest ->
    let* () = call name (build body) in
    build rest
  | Spawn body :: rest ->
    let* tid = spawn (build body) in
    (* Join only after the remaining ops, so the child truly interleaves
       with the parent; children always halt, so this cannot deadlock. *)
    let* () = build rest in
    join tid

let gen_program seed =
  let st = Random.State.make [| 0x5eed; seed |] in
  let n_threads = 1 + Random.State.int st 3 in
  init_ordered n_threads (fun () ->
      build
        (gen_ops st
           ~len:(6 + Random.State.int st 14)
           ~depth:3 ~spawns:(ref 2)))

(* Every harness replaying [gen_program] output must supply this device
   set: the generated programs open "dev" for positional reads. *)
let gen_devices () =
  [ ("dev", Aprof_vm.Device.file (Array.init 64 (fun i -> (i * 3) land 0xff))) ]

let schedulers =
  [
    ("round-robin", Aprof_vm.Scheduler.Round_robin { slice = 8 });
    ("serialized", Aprof_vm.Scheduler.Serialized);
    ( "seeded-preemptive",
      Aprof_vm.Scheduler.Random_preemptive { min_slice = 2; max_slice = 24 } );
    ( "work-stealing",
      Aprof_vm.Scheduler.Work_stealing { workers = 3; slice = 8 } );
    ("async-io", Aprof_vm.Scheduler.Async_io { slice = 8; io_delay = 4 });
  ]

let n_programs = 50


let check_program ~sched_name ~scheduler seed =
  let w = { Workload.programs = gen_program seed; devices = gen_devices () } in
  let result = Workload.run ~scheduler w ~seed in
  let trace = result.Interp.trace in
  (match Sys.getenv_opt "APROF_DEBUG_SIZES" with
  | Some _ ->
    Printf.eprintf "seed %d (%s): %d events, %d threads, %d routines\n" seed
      sched_name (Trace.length trace) result.Interp.threads_spawned
      (Aprof_trace.Routine_table.size result.Interp.routines)
  | None -> ());
  (match Trace.well_formed trace with
  | [] -> ()
  | errs ->
    Alcotest.failf "seed %d (%s): ill-formed trace: %s" seed sched_name
      (String.concat "; " errs));
  (* (a) timestamping = naive oracle, rms and drms alike *)
  let p1 = run_drms trace and p2 = run_naive trace in
  check_profiles_equal
    (Printf.sprintf "seed %d (%s): drms = naive" seed sched_name)
    p1 p2;
  check_ops_equal
    (Printf.sprintf "seed %d (%s): attribution = naive" seed sched_name)
    p1 p2;
  (* (b) streaming = materialized for every standard tool *)
  List.iter
    (fun (module M : Tool.S) ->
      let materialized = M.create () in
      Trace.replay trace (M.on_batch materialized);
      let streamed = M.create () in
      let live =
        Workload.run_batched ~scheduler w ~seed ~tool:(fun _ ->
            M.on_batch streamed)
      in
      if live.Interp.events_emitted <> Trace.length trace then
        Alcotest.failf "seed %d (%s): %s: event counts differ" seed sched_name
          M.name;
      let tool_state st = (M.space_words st, M.summary st) in
      let sw, ssum = tool_state streamed and mw, msum = tool_state materialized in
      if (sw, ssum) <> (mw, msum) then
        Alcotest.failf
          "seed %d (%s): tool %s diverges between streaming and \
           materialized replay:\n%s\nvs\n%s"
          seed sched_name M.name ssum msum)
    Aprof_tools.Harness.tools

let suite =
  List.map
    (fun (sched_name, scheduler) ->
      Alcotest.test_case
        (Printf.sprintf "%d random programs (%s)" n_programs sched_name)
        `Slow
        (fun () ->
          for seed = 0 to n_programs - 1 do
            check_program ~sched_name ~scheduler seed
          done))
    schedulers
