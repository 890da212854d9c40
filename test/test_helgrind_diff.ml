(* Differential for the epoch-based race detector: on random VM
   programs under every scheduler policy, {!Aprof_tools.Helgrind_lite}
   (adaptive epochs, interned locksets, shadow-arena cells) must report
   the identical race set as the retained full-vector-clock oracle
   {!Aprof_tools.Helgrind_ref}.

   Races are compared as ordered (addr, kind, accessing tid) triples:
   detection order and accessor are pinned exactly.  The reported peer
   of a read-write race is allowed to differ — the epoch detector prunes
   reads that happen-before a retained read, so when several past reads
   race with one write it may name a different (equally racy) reader
   than the oracle's full vector scan.

   Random workloads alone rarely synthesize rich racy interleavings, so
   a second battery replays hand-built racy/clean programs (unprotected
   counters, read-write tearing, kernel-buffer overlap, lock-protected
   twins) under every scheduler too. *)

open Aprof_vm.Program
module Interp = Aprof_vm.Interp
module Workload = Aprof_workloads.Workload
module Trace = Aprof_trace.Trace
module Hl = Aprof_tools.Helgrind_lite
module Href = Aprof_tools.Helgrind_ref

let epoch_races trace =
  let t = Hl.create () in
  Trace.replay trace (Hl.on_batch t);
  List.map (fun (r : Hl.race) -> (r.addr, r.kind, r.tid)) (Hl.races t)

let ref_races trace =
  let t = Href.create () in
  Trace.replay trace (Href.on_batch t);
  List.map (fun (r : Href.race) -> (r.addr, r.kind, r.tid)) (Href.races t)

let kind_name = function
  | `Write_write -> "write-write"
  | `Read_write -> "read-write"
  | `Write_read -> "write-read"

let show races =
  String.concat "; "
    (List.map
       (fun (addr, kind, tid) ->
         Printf.sprintf "%s@%#x(t%d)" (kind_name kind) addr tid)
       races)

let check_trace label trace =
  let e = epoch_races trace and r = ref_races trace in
  if e <> r then
    Alcotest.failf "%s: race sets differ@.epoch: %s@.ref:   %s" label (show e)
      (show r)

let check_program ~sched_name ~scheduler seed =
  let w =
    { Workload.programs = Test_vm_differential.gen_program seed;
        devices = Test_vm_differential.gen_devices () }
  in
  let result = Workload.run ~scheduler w ~seed in
  check_trace
    (Printf.sprintf "seed %d (%s)" seed sched_name)
    result.Interp.trace

(* --- adversarial programs: actual races of every kind ----------------- *)

let unlocked_counter =
  let* cell = alloc 1 in
  let worker =
    for_ 1 8 (fun i ->
        let* v = read cell in
        write cell (v + i))
  in
  let* a = spawn worker in
  let* b = spawn worker in
  let* () = join a in
  join b

let write_only_race =
  let* cell = alloc 2 in
  let worker k = for_ 1 6 (fun i -> write (cell + k) i) in
  let* a = spawn (worker 0) in
  let* b = spawn (worker 0) in
  let* () = write (cell + 1) 1 in
  let* () = join a in
  join b

let reader_vs_writer =
  let* cell = alloc 1 in
  let* () = write cell 1 in
  let reader =
    for_ 1 6 (fun _ ->
        let* _ = read cell in
        return ())
  in
  let* a = spawn reader in
  let* b = spawn reader in
  let* () = for_ 1 6 (fun i -> write cell i) in
  let* () = join a in
  join b

let locked_twin =
  let* cell = alloc 1 in
  let* m = Aprof_vm.Sync.Mutex.create () in
  let worker =
    for_ 1 8 (fun i ->
        Aprof_vm.Sync.Mutex.with_lock m
          (let* v = read cell in
           write cell (v + i)))
  in
  let* a = spawn worker in
  let* b = spawn worker in
  let* () = join a in
  join b

let half_locked =
  (* One thread protects the cell, the other does not: the lock edge
     creates partial happens-before, the remainder still races. *)
  let* cell = alloc 1 in
  let* m = Aprof_vm.Sync.Mutex.create () in
  let locked =
    for_ 1 6 (fun i ->
        Aprof_vm.Sync.Mutex.with_lock m
          (let* v = read cell in
           write cell (v + i)))
  in
  let unlocked =
    for_ 1 6 (fun i ->
        let* _ = read cell in
        write cell i)
  in
  let* a = spawn locked in
  let* b = spawn unlocked in
  let* () = join a in
  join b

let adversarial = [
  ("unlocked-counter", unlocked_counter);
  ("write-only-race", write_only_race);
  ("reader-vs-writer", reader_vs_writer);
  ("locked-twin", locked_twin);
  ("half-locked", half_locked);
]

let check_adversarial ~sched_name ~scheduler () =
  List.iter
    (fun (name, program) ->
      for seed = 0 to 9 do
        let result =
          Interp.run
            { Interp.scheduler; seed; devices = []; max_events = 1_000_000;
              reuse_freed_memory = false }
            [ program ]
        in
        check_trace
          (Printf.sprintf "%s seed %d (%s)" name seed sched_name)
          result.Interp.trace
      done)
    adversarial

let suite =
  List.concat_map
    (fun (sched_name, scheduler) ->
      [
        Alcotest.test_case
          (Printf.sprintf "epoch = reference: %d random programs (%s)"
             Test_vm_differential.n_programs sched_name)
          `Slow
          (fun () ->
            for seed = 0 to Test_vm_differential.n_programs - 1 do
              check_program ~sched_name ~scheduler seed
            done);
        Alcotest.test_case
          (Printf.sprintf "epoch = reference: racy programs (%s)" sched_name)
          `Quick
          (check_adversarial ~sched_name ~scheduler);
      ])
    Test_vm_differential.schedulers
