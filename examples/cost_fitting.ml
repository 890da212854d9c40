(* Estimating empirical cost functions of classic algorithms: run each
   sorting/searching kernel over a size sweep, collect its performance
   points, and let the penalized selection name the asymptotic class,
   with its bootstrap confidence.

     dune exec examples/cost_fitting.exe *)

module Profile = Aprof_core.Profile
module Select = Aprof_analysis.Fit_select

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
  match Profile.cost_points ~metric:`Drms ~cost:`Max d with
  | [ (n, c) ] -> (n, c)
  | points ->
    (* several activations: take the largest input *)
    List.fold_left (fun (bn, bc) (n, c) -> if n > bn then (n, c) else (bn, bc))
      (0, 0.) points

(* Powers of two: AICc admits a 3-parameter class only from 5 sizes on,
   and prices it steeply at exactly 5, so the sweep needs more sizes
   than that.  Other spacings make binary_search's drms (cells examined)
   wobble between neighbouring sizes. *)
let sizes = [ 16; 32; 64; 128; 256; 512; 1024 ]

let class_name (sel : Select.selection) =
  Aprof_analysis.Fit_basis.name sel.Select.best.Aprof_analysis.Fit_solve.cls

let sweep name make routine =
  let points = List.map (fun n -> profile_point (make ~n) routine) sizes in
  match Select.select points with
  | Some sel ->
    Printf.printf "%-16s %-12s (confidence %.2f%s)\n" name (class_name sel)
      sel.Select.confidence
      (match sel.Select.exponent with
      | Some (k, _, _) -> Printf.sprintf ", empirical exponent %.2f" k
      | None -> "")
  | None -> Printf.printf "%-16s (not enough points)\n" name

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
     ( Select.select (List.map (fun (_, d, c) -> (d, c)) bs_points),
       Select.select (List.map (fun (n, _, c) -> (n, c)) bs_points) )
   with
  | Some vs_drms, Some vs_n ->
    Printf.printf "%-16s %-12s in its drms (cells examined), confidence %.2f\n"
      "binary_search" (class_name vs_drms) vs_drms.Select.confidence;
    Printf.printf "%-16s %-12s in the array size, confidence %.2f\n" ""
      (class_name vs_n) vs_n.Select.confidence
  | _ -> ());
  print_endline
    "\n(the drms of binary_search is itself logarithmic: the metric counts the";
  print_endline " cells a routine actually consumes, not the structure it lives in)"
