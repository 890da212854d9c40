(* Figure 10: selection sort profiled by executed basic blocks versus a
   noisy simulated-time measurement.  Both expose the quadratic trend,
   but the basic-block plot is clean while the time plot scatters. *)

module Plot = Aprof_plot.Ascii_plot
module Profile = Aprof_core.Profile

let sizes = [ 40; 80; 120; 160; 200; 240; 280; 320 ]

let run ppf =
  Exp_common.section ppf "fig10: counting basic blocks vs measuring time";
  let rng = Aprof_util.Rng.create 99 in
  let points =
    List.map
      (fun n ->
        let result =
          Aprof_workloads.Workload.run
            (Aprof_workloads.Sorting.selection_sort_run ~n ~seed:5)
            ~seed:5
        in
        let p = Aprof_core.Drms_profiler.create () in
        Aprof_trace.Trace.replay result.Aprof_vm.Interp.trace (Aprof_core.Drms_profiler.on_batch p);
        let profile = Aprof_core.Drms_profiler.finish p in
        let run_data = { Exp_common.name = "sort"; result; profile } in
        let d = Exp_common.merged run_data "selection_sort" in
        match d.Profile.drms_points with
        | [ pt ] ->
          let bb = pt.Profile.max_cost in
          let ns =
            Aprof_core.Cost_model.simulated_time_ns rng ~ns_per_block:2.5
              ~jitter:0.18 bb
          in
          (pt.Profile.input, float_of_int bb, ns)
        | _ -> failwith "expected one selection_sort activation")
      sizes
  in
  let bb_chart =
    Plot.create ~title:"Cost plot (selection_sort), executed BB"
      ~x_label:"read memory size" ~y_label:"cost (executed BB)" ()
  in
  Plot.add_series bb_chart ~name:"BB" ~marker:'*'
    (List.map (fun (n, bb, _) -> (float_of_int n, bb)) points);
  Format.fprintf ppf "%s@." (Plot.render_string bb_chart);
  let ns_chart =
    Plot.create ~title:"Cost plot (selection_sort), simulated nanoseconds"
      ~x_label:"read memory size" ~y_label:"cost (ns)" ()
  in
  Plot.add_series ns_chart ~name:"ns" ~marker:'o'
    (List.map (fun (n, _, ns) -> (float_of_int n, ns)) points);
  Format.fprintf ppf "%s@." (Plot.render_string ns_chart);
  Exp_common.fit_note ppf ~label:"BB cost vs input"
    (List.map (fun (n, bb, _) -> (n, bb)) points);
  (match
     Aprof_analysis.Fit_solve.power_law
       (List.map (fun (n, bb, _) -> (n, bb)) points)
   with
  | Some (_, k, r2) ->
    Format.fprintf ppf "  power-law exponent on BB: %.2f (R^2 = %.4f, paper trend: 2)@." k r2
  | None -> ());
  match
    Aprof_analysis.Fit_solve.power_law
      (List.map (fun (n, _, ns) -> (n, ns)) points)
  with
  | Some (_, k, r2) ->
    Format.fprintf ppf "  power-law exponent on noisy ns: %.2f (R^2 = %.4f)@." k r2
  | None -> ()
