(* The load-bearing correctness tests: on arbitrary well-formed traces the
   read/write timestamping algorithm (Figure 8/9) must produce exactly the
   profile of the naive set-based algorithm (Figure 7), under every
   configuration — including an artificially tiny renumbering threshold
   that forces the counter-overflow path to run constantly. *)

open Helpers

let count = 300

let make_test ?(params = Gen_trace.default_params) name check =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count
       ~print:Gen_trace.print
       (Gen_trace.gen ~params ())
       check)

let drms_equals_naive trace =
  let p1 = run_drms trace in
  let p2 = run_naive trace in
  check_profiles_equal "timestamping = naive" p1 p2;
  true

let ops_equal_naive trace =
  let p1 = run_drms trace in
  let p2 = run_naive trace in
  check_ops_equal "op attribution equal" p1 p2;
  true

let renumbering_invariant trace =
  let p1 = run_drms trace in
  let p2 = run_drms ~overflow_limit:16 trace in
  check_profiles_equal "tiny overflow limit = default" p1 p2;
  true

let rms_profiler_agrees trace =
  (* Plain aprof (mode [`None], which never consults a write stamp) must
     agree with the rms the full profiler computes beside the drms. *)
  let p_rms = run_rms trace in
  let p_drms = run_drms trace in
  let rms_sig p =
    Aprof_core.Profile.keys p
    |> List.filter_map (fun k ->
           Option.map
             (fun (d : Aprof_core.Profile.routine_data) ->
               ( (k.Aprof_core.Profile.tid, k.Aprof_core.Profile.routine),
                 List.map
                   (fun (pt : Aprof_core.Profile.point) ->
                     (pt.Aprof_core.Profile.input, pt.Aprof_core.Profile.calls))
                   d.Aprof_core.Profile.rms_points ))
             (Aprof_core.Profile.data p k))
    |> List.sort compare
  in
  Alcotest.(check (list (pair (pair int int) (list (pair int int)))))
    "rms profiles equal" (rms_sig p_drms) (rms_sig p_rms);
  true

let inequality_holds trace =
  let p = run_drms trace in
  List.for_all
    (fun k ->
      match Aprof_core.Profile.data p k with
      | None -> true
      | Some d -> d.Aprof_core.Profile.sum_drms >= d.Aprof_core.Profile.sum_rms)
    (Aprof_core.Profile.keys p)

let mode_none_is_rms trace =
  (* With inducement disabled the drms degenerates to the rms. *)
  let p = run_drms ~mode:`None trace in
  List.for_all
    (fun k ->
      match Aprof_core.Profile.data p k with
      | None -> true
      | Some d ->
        d.Aprof_core.Profile.drms_points = d.Aprof_core.Profile.rms_points)
    (Aprof_core.Profile.keys p)

let invariant2_holds trace =
  (* Replay, and at sampled prefixes compare the suffix-sum drms of each
     pending activation against the naive oracle's explicit value. *)
  let p1 = Aprof_core.Drms_profiler.create () in
  let p2 = Aprof_core.Naive_drms.create () in
  let step = 7 in
  let i = ref 0 in
  let ok = ref true in
  Trace.iter
    (fun ev ->
      feed (Aprof_core.Drms_profiler.on_batch p1) [ ev ];
      feed (Aprof_core.Naive_drms.on_batch p2) [ ev ];
      incr i;
      if !i mod step = 0 then
        for tid = 0 to 3 do
          let a = Aprof_core.Drms_profiler.current_drms p1 ~tid in
          let b = Aprof_core.Naive_drms.current_drms p2 ~tid in
          if a <> b then ok := false
        done)
    trace;
  !ok

(* A profiler reset after one trace must behave exactly like a fresh
   one on the next: no stamp, thread state or counter of the first trace
   may leak into the second.  The first trace is sometimes the wider one
   — more threads and addresses than the second, so zero-filled pages
   and recycled thread states are both revisited — and sometimes drawn
   like the second, which may then name threads the first never had.  A
   64-tick overflow limit renumbers on both sides of the reset. *)
let wide_params = { Gen_trace.default_params with max_threads = 6; max_addr = 40 }

let reset_equals_fresh (a, b) =
  let module D = Aprof_core.Drms_profiler in
  let dump p = Aprof_core.Profile_io.to_string p in
  List.iter
    (fun mode ->
      let p = D.create ~overflow_limit:64 ~mode () in
      Trace.replay a (D.on_batch p);
      ignore (D.finish p);
      D.reset p;
      Trace.replay b (D.on_batch p);
      Alcotest.(check string) "reset drms = fresh drms"
        (dump (run_drms ~overflow_limit:64 ~mode b))
        (dump (D.finish p)))
    [ `Both; `External_only; `Thread_only; `None ];
  (* Every registry profiler, as the daemon's pool recycles it: the
     profile finished before the reset stays its receiver's. *)
  List.iter
    (fun (name, (module P : Aprof_tools.Tool.Profiler)) ->
      let fresh t =
        let p = P.create () in
        Trace.replay t (P.on_batch p);
        dump (P.finish p)
      in
      let p = P.create () in
      Trace.replay a (P.on_batch p);
      let first = P.finish p in
      let first_dump = dump first in
      P.reset p;
      Trace.replay b (P.on_batch p);
      Alcotest.(check string)
        ("reset " ^ name ^ " = fresh " ^ name)
        (fresh b)
        (dump (P.finish p));
      Alcotest.(check string)
        (name ^ ": finished profile untouched by reset")
        first_dump (dump first))
    Aprof_tools.Harness.profilers;
  true

let reset_test =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"reset profiler = fresh profiler" ~count:150
       ~print:(fun (a, b) ->
         Gen_trace.print a ^ "\n--- reset ---\n" ^ Gen_trace.print b)
       QCheck2.Gen.(
         pair
           (oneof [ Gen_trace.gen ~params:wide_params (); Gen_trace.gen () ])
           (Gen_trace.gen ()))
       reset_equals_fresh)

let single_thread_params =
  { Gen_trace.default_params with max_threads = 1; with_kernel = false }

let kernel_free_params = { Gen_trace.default_params with with_kernel = false }

let deep_params =
  { Gen_trace.default_params with max_depth = 12; events_per_thread = 250 }

let suite =
  [
    make_test "drms = naive (full)" drms_equals_naive;
    make_test ~params:single_thread_params "drms = naive (single thread)"
      drms_equals_naive;
    make_test ~params:kernel_free_params "drms = naive (no kernel)"
      drms_equals_naive;
    make_test ~params:deep_params "drms = naive (deep stacks)" drms_equals_naive;
    make_test "first-read op attribution = naive" ops_equal_naive;
    make_test "renumbering preserves profiles" renumbering_invariant;
    make_test "standalone rms profiler agrees" rms_profiler_agrees;
    make_test "drms >= rms (Inequality 1)" inequality_holds;
    make_test "mode None degenerates to rms" mode_none_is_rms;
    make_test "Invariant 2 at prefixes" invariant2_holds;
    reset_test;
  ]
