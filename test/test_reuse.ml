(* Address recycling: with the free-list allocator, a recycled block must
   behave exactly like fresh memory under every profiler. *)

open Aprof_vm.Program
module Interp = Aprof_vm.Interp

let run_reuse ?(reuse = true) threads =
  Interp.run
    { Interp.default_config with reuse_freed_memory = reuse; seed = 5 }
    threads

(* Allocate, touch, free, reallocate: the second allocation must land on
   the same addresses when reuse is on, and its reads must count as plain
   first-reads (not stale re-reads of the old block). *)
let test_recycled_block_is_fresh () =
  let addrs = ref [] in
  let prog =
    let* a = alloc 8 in
    let* () =
      call "first_user" (for_ 0 7 (fun i -> write (a + i) (100 + i)))
    in
    let* () = dealloc a 8 in
    let* b = alloc 8 in
    addrs := [ a; b ];
    call "second_user"
      (let* _s =
         fold_range 0 7 0 (fun i acc ->
             let* v = read (b + i) in
             return (acc + v))
       in
       return ())
  in
  let result = run_reuse [ prog ] in
  (match !addrs with
  | [ a; b ] -> Alcotest.(check int) "block recycled" a b
  | _ -> Alcotest.fail "expected two allocations");
  let p = Aprof_core.Drms_profiler.create () in
  Aprof_trace.Trace.replay result.Interp.trace (Aprof_core.Drms_profiler.on_batch p);
  let profile = Aprof_core.Drms_profiler.finish p in
  let rid =
    Option.get
      (Aprof_trace.Routine_table.find result.Interp.routines "second_user")
  in
  let d = List.assoc rid (Aprof_core.Profile.merge_threads profile) in
  (* all 8 reads are fresh input, none attributed to the dead block's
     writer *)
  Alcotest.(check int) "plain first-reads" 8 d.Aprof_core.Profile.first_read_ops;
  Alcotest.(check int) "no induced" 0
    (d.Aprof_core.Profile.induced_thread_ops
    + d.Aprof_core.Profile.induced_external_ops)

let test_no_reuse_gets_fresh_addresses () =
  let addrs = ref [] in
  let prog =
    let* a = alloc 8 in
    let* () = write a 1 in
    let* () = dealloc a 8 in
    let* b = alloc 8 in
    addrs := [ a; b ];
    return ()
  in
  let _ = run_reuse ~reuse:false [ prog ] in
  match !addrs with
  | [ a; b ] -> Alcotest.(check bool) "fresh addresses" true (a <> b)
  | _ -> Alcotest.fail "expected two allocations"

let test_first_fit_splits () =
  let addrs = ref [] in
  let prog =
    let* a = alloc 10 in
    let* () = dealloc a 10 in
    let* b = alloc 4 in
    (* takes the head of the freed block *)
    let* c = alloc 6 in
    (* takes the split remainder *)
    addrs := [ a; b; c ];
    return ()
  in
  let _ = run_reuse [ prog ] in
  match !addrs with
  | [ a; b; c ] ->
    Alcotest.(check int) "head reused" a b;
    Alcotest.(check int) "remainder reused" (a + 4) c
  | _ -> Alcotest.fail "expected three allocations"

let test_recycled_reads_zero () =
  let seen = ref (-1) in
  let prog =
    let* a = alloc 2 in
    let* () = write a 99 in
    let* () = dealloc a 2 in
    let* b = alloc 2 in
    let* v = read b in
    seen := v;
    return ()
  in
  let _ = run_reuse [ prog ] in
  Alcotest.(check int) "recycled memory reads zero" 0 !seen

let suite =
  [
    Alcotest.test_case "recycled block is fresh input" `Quick
      test_recycled_block_is_fresh;
    Alcotest.test_case "bump allocator never reuses" `Quick
      test_no_reuse_gets_fresh_addresses;
    Alcotest.test_case "first fit splits blocks" `Quick test_first_fit_splits;
    Alcotest.test_case "recycled memory reads zero" `Quick
      test_recycled_reads_zero;
  ]
