(* The MySQL case study (Section 2.1): scan queries over tables of
   increasing size through a small buffer pool, then let the fitting
   module estimate the empirical cost function of mysql_select from each
   metric's performance points.

     dune exec examples/mysql_scaling.exe *)

module Fit = Aprof_core.Fit
module Profile = Aprof_core.Profile

let () =
  let row_counts = [ 100; 200; 400; 800; 1200; 1600 ] in
  let p = Aprof_core.Drms_profiler.create () in
  let result =
    Aprof_workloads.Workload.run_batched
      (Aprof_workloads.Mysql_sim.select_sweep ~row_counts ~seed:23)
      ~seed:23
      ~tool:(fun _ -> Aprof_core.Drms_profiler.on_batch p)
  in
  let profile = Aprof_core.Drms_profiler.finish p in
  let rid =
    Option.get
      (Aprof_trace.Routine_table.find result.Aprof_vm.Interp.routines
         "mysql_select")
  in
  let d = List.assoc rid (Profile.merge_threads profile) in

  Printf.printf "mysql_select: one activation per table size\n";
  Printf.printf "%10s %10s %12s\n" "rms" "drms" "cost(BB)";
  List.iter2
    (fun (r : Profile.point) (q : Profile.point) ->
      Printf.printf "%10d %10d %12d\n" r.Profile.input q.Profile.input
        q.Profile.max_cost)
    (List.concat_map
       (fun (pt : Profile.point) ->
         List.init pt.Profile.calls (fun _ -> pt))
       d.Profile.rms_points)
    d.Profile.drms_points;

  let report label points =
    match Fit.best_fit points with
    | Some r ->
      Printf.printf "%s: best model %s (R^2 = %.4f)\n" label
        (Fit.model_name r.Fit.model) r.Fit.r_squared
    | None -> Printf.printf "%s: not enough distinct points to fit\n" label
  in
  print_newline ();
  report "cost vs rms "
    (Fit.points_of_profile ~metric:`Rms ~cost:`Max d);
  report "cost vs drms"
    (Fit.points_of_profile ~metric:`Drms ~cost:`Max d);
  print_endline
    "\nThe rms points pile up at the buffer-pool size, so no meaningful cost";
  print_endline
    "function can be estimated from them; the drms points land on a clean";
  print_endline "line — the scan is linear in the tuples actually loaded."
