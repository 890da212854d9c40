(* Estimating empirical cost functions of classic algorithms: run each
   sorting/searching kernel over a size sweep, collect its performance
   points, and let the fitting module name the asymptotic class.

     dune exec examples/cost_fitting.exe *)

module Fit = Aprof_core.Fit
module Profile = Aprof_core.Profile

let profile_point workload routine =
  let p = Aprof_core.Drms_profiler.create () in
  let result =
    Aprof_workloads.Workload.run_batched workload ~seed:41 ~tool:(fun _ ->
        Aprof_core.Drms_profiler.on_batch p)
  in
  let profile = Aprof_core.Drms_profiler.finish p in
  let rid =
    Option.get
      (Aprof_trace.Routine_table.find result.Aprof_vm.Interp.routines routine)
  in
  let d = List.assoc rid (Profile.merge_threads profile) in
  match Fit.points_of_profile ~metric:`Drms ~cost:`Max d with
  | [ (n, c) ] -> (n, c)
  | points ->
    (* several activations: take the largest input *)
    List.fold_left (fun (bn, bc) (n, c) -> if n > bn then (n, c) else (bn, bc))
      (0, 0.) points

let sizes = [ 32; 64; 128; 256; 512 ]

let sweep name make routine =
  let points = List.map (fun n -> profile_point (make ~n) routine) sizes in
  match (Fit.best_fit points, Fit.power_law points) with
  | Some r, Some (_, k, _) ->
    Printf.printf "%-16s %-12s (R^2 = %.4f, empirical exponent %.2f)\n" name
      (Fit.model_name r.Fit.model) r.Fit.r_squared k
  | _ -> Printf.printf "%-16s (not enough points)\n" name

let () =
  print_endline "estimated empirical cost functions (drms vs worst-case cost):";
  sweep "selection_sort"
    (fun ~n -> Aprof_workloads.Sorting.selection_sort_run ~n ~seed:1)
    "selection_sort";
  sweep "insertion_sort"
    (fun ~n -> Aprof_workloads.Sorting.insertion_sort_run ~n ~seed:1)
    "insertion_sort";
  sweep "merge_sort"
    (fun ~n -> Aprof_workloads.Sorting.merge_sort_run ~n ~seed:1)
    "merge_sort";

  (* Binary search illustrates what the metric measures: its drms is the
     number of cells it actually examines (log n), and its cost is linear
     in that consumed input.  Plotting cost against the *array size*
     instead recovers the textbook logarithm. *)
  let bs_points =
    List.map
      (fun n ->
        let drms, cost =
          profile_point
            (Aprof_workloads.Sorting.binary_search_run ~n ~lookups:1 ~seed:1)
            "binary_search"
        in
        (n, drms, cost))
      sizes
  in
  (match
     ( Fit.best_fit (List.map (fun (_, d, c) -> (d, c)) bs_points),
       Fit.best_fit (List.map (fun (n, _, c) -> (n, c)) bs_points) )
   with
  | Some vs_drms, Some vs_n ->
    Printf.printf "%-16s %-12s in its drms (cells examined)\n" "binary_search"
      (Fit.model_name vs_drms.Fit.model);
    Printf.printf "%-16s %-12s in the array size\n" "" (Fit.model_name vs_n.Fit.model)
  | _ -> ());
  print_endline
    "\n(the drms of binary_search is itself logarithmic: the metric counts the";
  print_endline " cells a routine actually consumes, not the structure it lives in)"
