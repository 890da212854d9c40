(* Figure 4: worst-case cost plots of mysql_select keyed by rms and by
   drms.  The rms plot must collapse onto a narrow input range with
   growing cost (a spurious superlinear look), while the drms plot must
   be cleanly linear. *)

module Plot = Aprof_plot.Ascii_plot

let row_counts = [ 100; 200; 300; 400; 500; 600; 700; 800 ]

let run ppf =
  Exp_common.section ppf "fig4: mysql_select cost plots (rms vs drms)";
  let result =
    Aprof_workloads.Workload.run
      (Aprof_workloads.Mysql_sim.select_sweep ~row_counts ~seed:3)
      ~seed:3
  in
  let p = Aprof_core.Drms_profiler.create () in
  Aprof_trace.Trace.replay result.Aprof_vm.Interp.trace (Aprof_core.Drms_profiler.on_batch p);
  let run_data =
    {
      Exp_common.name = "mysql";
      result;
      profile = Aprof_core.Drms_profiler.finish p;
    }
  in
  let d = Exp_common.merged run_data "mysql_select" in
  let rms_points = Aprof_core.Profile.cost_points ~metric:`Rms ~cost:`Max d in
  let drms_points = Aprof_core.Profile.cost_points ~metric:`Drms ~cost:`Max d in
  let plot metric points =
    let chart =
      Plot.create
        ~title:(Printf.sprintf "Cost plot (mysql_select) vs %s" metric)
        ~x_label:metric ~y_label:"cost (executed BB)" ()
    in
    Plot.add_series chart ~name:"worst-case cost" ~marker:'*'
      (List.map (fun (n, c) -> (float_of_int n, c)) points);
    Format.fprintf ppf "%s@." (Plot.render_string chart)
  in
  plot "RMS" rms_points;
  plot "DRMS" drms_points;
  Exp_common.fit_note ppf ~label:"cost vs drms" drms_points;
  let spread pts =
    let xs = List.map fst pts in
    List.fold_left max min_int xs - List.fold_left min max_int xs
  in
  Format.fprintf ppf
    "  input-size spread: rms %d vs drms %d (paper: rms stays near the \
     buffer size; drms tracks the table)@."
    (spread rms_points) (spread drms_points)
