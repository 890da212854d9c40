(* Calling-context-sensitive profiling: the same routine reached over two
   paths must get two separate context profiles. *)

open Aprof_vm.Program
module Cct = Aprof_core.Cct
module Profile = Aprof_core.Profile

let test_cct_interning () =
  let t = Cct.create () in
  let a = Cct.child t Cct.root 10 in
  let b = Cct.child t a 20 in
  let b' = Cct.child t a 20 in
  Alcotest.(check int) "interned" b b';
  Alcotest.(check int) "size" 3 (Cct.size t);
  Alcotest.(check (option int)) "parent" (Some a) (Cct.parent t b);
  Alcotest.(check (option int)) "root parent" None (Cct.parent t Cct.root);
  Alcotest.(check (list int)) "path" [ 10; 20 ] (Cct.path t b);
  Alcotest.check_raises "unknown node" (Invalid_argument "Cct: unknown node 9")
    (fun () -> ignore (Cct.parent t 9))

(* helper: reads [n] cells starting at [a] *)
let reader name a n = call name (Aprof_workloads.Blocks.read_sum a n >>= fun _ -> return ())

let test_context_separation () =
  (* copy_buf is called from io_path on 40 cells and from init_path on 4
     cells: flat profiles merge them, context profiles must not. *)
  let program =
    let* big = alloc 40 in
    let* small = alloc 4 in
    let* () = Aprof_workloads.Blocks.write_fill big 40 (fun i -> i) in
    let* () = Aprof_workloads.Blocks.write_fill small 4 (fun i -> i) in
    let* () = call "io_path" (reader "copy_buf" big 40) in
    call "init_path" (reader "copy_buf" small 4)
  in
  let result =
    Aprof_vm.Interp.run Aprof_vm.Interp.default_config [ program ]
  in
  let p = Aprof_core.Drms_profiler.create ~track_contexts:true () in
  Aprof_trace.Trace.replay result.Aprof_vm.Interp.trace (Aprof_core.Drms_profiler.on_batch p);
  let flat = Aprof_core.Drms_profiler.finish p in
  let tbl = result.Aprof_vm.Interp.routines in
  let copy_buf = Option.get (Aprof_trace.Routine_table.find tbl "copy_buf") in
  (* flat: one routine entry holding both activations *)
  let flat_d = List.assoc copy_buf (Profile.merge_threads flat) in
  Alcotest.(check int) "flat merges activations" 2 flat_d.Profile.activations;
  (* context-sensitive: two distinct nodes for copy_buf *)
  match Aprof_core.Drms_profiler.context_results p with
  | None -> Alcotest.fail "expected context results"
  | Some (tree, cprofile) ->
    let nodes =
      Profile.routines cprofile
      |> List.filter (fun n -> n <> Cct.root && Cct.routine tree n = copy_buf)
    in
    Alcotest.(check int) "two contexts" 2 (List.length nodes);
    let inputs =
      List.map
        (fun n ->
          let d = List.assoc n (Profile.merge_threads cprofile) in
          int_of_float d.Profile.sum_drms)
        nodes
      |> List.sort compare
    in
    Alcotest.(check (list int)) "per-context drms" [ 4; 40 ] inputs;
    (* the paths name the callers *)
    let paths =
      List.map
        (fun n ->
          Format.asprintf "%a"
            (Cct.pp_path (Aprof_trace.Routine_table.name tbl) tree)
            n)
        nodes
      |> List.sort compare
    in
    Alcotest.(check (list string)) "paths"
      [ "init_path -> copy_buf"; "io_path -> copy_buf" ]
      paths

let test_recursion_contexts () =
  (* recursive calls grow the context chain *)
  let rec down n =
    call "descend" (if n = 0 then return () else down (n - 1))
  in
  let result =
    Aprof_vm.Interp.run Aprof_vm.Interp.default_config [ down 3 ]
  in
  let p = Aprof_core.Drms_profiler.create ~track_contexts:true () in
  Aprof_trace.Trace.replay result.Aprof_vm.Interp.trace (Aprof_core.Drms_profiler.on_batch p);
  ignore (Aprof_core.Drms_profiler.finish p);
  match Aprof_core.Drms_profiler.context_results p with
  | None -> Alcotest.fail "expected context results"
  | Some (tree, cprofile) ->
    (* root + 4 nested descend nodes *)
    Alcotest.(check int) "chain interned" 5 (Cct.size tree);
    Alcotest.(check int) "one profile entry per depth" 4
      (List.length (Profile.routines cprofile))

let test_flat_profile_unchanged () =
  (* context tracking must not perturb the flat profile *)
  let result =
    Aprof_workloads.Workload.run
      (Aprof_workloads.Patterns.producer_consumer ~n:15)
      ~seed:3
  in
  let with_ctx = Aprof_core.Drms_profiler.create ~track_contexts:true () in
  let without = Aprof_core.Drms_profiler.create () in
  Aprof_trace.Trace.replay result.Aprof_vm.Interp.trace (Aprof_core.Drms_profiler.on_batch with_ctx);
  Aprof_trace.Trace.replay result.Aprof_vm.Interp.trace (Aprof_core.Drms_profiler.on_batch without);
  Helpers.check_profiles_equal "flat profiles equal"
    (Aprof_core.Drms_profiler.finish with_ctx)
    (Aprof_core.Drms_profiler.finish without)

let suite =
  [
    Alcotest.test_case "cct interning" `Quick test_cct_interning;
    Alcotest.test_case "context separation" `Quick test_context_separation;
    Alcotest.test_case "recursion contexts" `Quick test_recursion_contexts;
    Alcotest.test_case "flat profile unchanged" `Quick test_flat_profile_unchanged;
  ]
