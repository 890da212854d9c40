(* Behavioural tests of the application miniatures: the case-study
   effects of Section 2.1 must actually show up in the profiles. *)

open Helpers
module Workloads = Aprof_workloads
module Metrics = Aprof_core.Metrics

let merged_data profile routine =
  match List.assoc_opt routine (Profile.merge_threads profile) with
  | Some d -> d
  | None -> Alcotest.failf "no profile for routine %d" routine

(* Figure 4: mysql_select's drms tracks table size; its rms plateaus near
   the buffer-pool frame, so distinct drms values >> distinct rms values
   and the drms/cost relation is linear while rms/cost is not. *)
let test_mysql_select_sweep () =
  let row_counts = [ 40; 80; 120; 160; 200; 240; 280; 320 ] in
  let w = Workloads.Mysql_sim.select_sweep ~row_counts ~seed:3 in
  let result = run_workload w in
  Alcotest.(check (list string)) "well-formed" []
    (Trace.well_formed result.Aprof_vm.Interp.trace);
  let profile = run_drms result.Aprof_vm.Interp.trace in
  let tbl = result.Aprof_vm.Interp.routines in
  let d = merged_data profile (routine_id tbl "mysql_select") in
  let n_drms = Metrics.distinct_points ~metric:`Drms d in
  let n_rms = Metrics.distinct_points ~metric:`Rms d in
  Alcotest.(check int) "one drms point per table size" (List.length row_counts) n_drms;
  Alcotest.(check bool) "rms collapses sizes" true (n_rms < n_drms);
  (* drms grows with the table; rms spread is tiny compared to that. *)
  let inputs l = List.map (fun (p : Profile.point) -> p.Profile.input) l in
  let drms_inputs = inputs d.Profile.drms_points in
  let rms_inputs = inputs d.Profile.rms_points in
  let spread xs = List.fold_left max 0 xs - List.fold_left min max_int xs in
  Alcotest.(check bool) "drms spread dominates rms spread" true
    (spread drms_inputs > 4 * max 1 (spread rms_inputs));
  (* Fitting worst-case cost against drms must come out linear. *)
  match
    Aprof_core.Fit.best_fit
      (Aprof_core.Fit.points_of_profile ~metric:`Drms ~cost:`Max d)
  with
  | Some { model = Aprof_core.Fit.Linear; r_squared; _ } ->
    Alcotest.(check bool) "good linear fit" true (r_squared > 0.98)
  | Some { model; _ } ->
    Alcotest.failf "expected linear drms fit, got %s"
      (Aprof_core.Fit.model_name model)
  | None -> Alcotest.fail "no fit"

(* Figure 5: im_generate's drms tracks the image while its rms stays near
   the (reused) tile pool. *)
let test_vips_im_generate () =
  let heights = [ 32; 48; 64; 80 ] in
  let w = Workloads.Vips_sim.pipeline ~workers:3 ~heights ~seed:5 in
  let result = run_workload w in
  Alcotest.(check (list string)) "well-formed" []
    (Trace.well_formed result.Aprof_vm.Interp.trace);
  let profile = run_drms result.Aprof_vm.Interp.trace in
  let tbl = result.Aprof_vm.Interp.routines in
  let d = merged_data profile (routine_id tbl "im_generate") in
  Alcotest.(check int) "one point per image"
    (List.length heights)
    (Metrics.distinct_points ~metric:`Drms d);
  let drms_inputs = List.map (fun (p : Profile.point) -> p.Profile.input) d.Profile.drms_points in
  let rms_inputs = List.map (fun (p : Profile.point) -> p.Profile.input) d.Profile.rms_points in
  let spread xs = List.fold_left max 0 xs - List.fold_left min max_int xs in
  Alcotest.(check bool) "drms spread dominates" true
    (spread drms_inputs > 4 * max 1 (spread rms_inputs))

(* Figure 6: the writer's rms collapses onto two region sizes while the
   drms separates most calls. *)
let test_vips_wbuffer () =
  let heights = Workloads.Vips_sim.default_heights in
  let calls = Workloads.Vips_sim.region_calls ~heights in
  let w = Workloads.Vips_sim.pipeline ~workers:3 ~heights ~seed:11 in
  let result = run_workload w in
  let profile = run_drms result.Aprof_vm.Interp.trace in
  let tbl = result.Aprof_vm.Interp.routines in
  let d = merged_data profile (routine_id tbl "wbuffer_write_thread") in
  Alcotest.(check int) "activations" calls d.Profile.activations;
  let n_rms = Metrics.distinct_points ~metric:`Rms d in
  let n_drms = Metrics.distinct_points ~metric:`Drms d in
  Alcotest.(check int) "rms collapses to exactly two classes" 2 n_rms;
  Alcotest.(check bool) "drms separates most calls" true
    (n_drms > calls * 3 / 4);
  (* And the external-only variant sits strictly in between (Figure 6b). *)
  let p_ext =
    let pr = Aprof_core.Drms_profiler.create ~mode:`External_only () in
    Aprof_trace.Trace.replay result.Aprof_vm.Interp.trace (Aprof_core.Drms_profiler.on_batch pr);
    Aprof_core.Drms_profiler.finish pr
  in
  let d_ext = merged_data p_ext (routine_id tbl "wbuffer_write_thread") in
  let n_ext = Metrics.distinct_points ~metric:`Drms d_ext in
  Alcotest.(check bool) "external-only in between" true
    (n_ext > n_rms && n_ext <= n_drms)

(* Figure 13/15: MySQL's induced first-reads are external-dominant, the
   vips pipeline's are thread-dominant. *)
let test_induced_breakdown () =
  let mysql =
    run_workload
      (Workloads.Mysql_sim.mysqlslap ~clients:4 ~queries:6 ~rows:150 ~seed:7)
  in
  let vips =
    run_workload
      (Workloads.Vips_sim.pipeline ~workers:3 ~heights:[ 64; 96 ] ~seed:7)
  in
  let breakdown r =
    let profile = run_drms r.Aprof_vm.Interp.trace in
    match Metrics.suite_characterization profile with
    | Some (thread_pct, ext_pct) -> (thread_pct, ext_pct)
    | None -> Alcotest.fail "no induced first-reads at all"
  in
  let _, mysql_ext = breakdown mysql in
  let vips_thread, _ = breakdown vips in
  Alcotest.(check bool) "mysql externally dominated" true (mysql_ext > 50.);
  Alcotest.(check bool) "vips thread share substantial" true (vips_thread > 40.)

let suite =
  [
    Alcotest.test_case "mysql_select sweep (fig 4)" `Quick test_mysql_select_sweep;
    Alcotest.test_case "vips im_generate (fig 5)" `Quick test_vips_im_generate;
    Alcotest.test_case "vips wbuffer (fig 6)" `Quick test_vips_wbuffer;
    Alcotest.test_case "induced breakdown (fig 13/15)" `Quick
      test_induced_breakdown;
  ]
