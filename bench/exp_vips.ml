(* Figures 5 and 6: the vips pipeline.

   fig5 — im_generate cost plots keyed by rms and drms: only the drms
   exposes the linear relation between image size and cost.

   fig6 — wbuffer_write_thread: (a) the rms collapses all calls onto two
   input sizes; (b) counting only external induced first-reads separates
   more; (c) the full drms separates almost every call. *)

module Plot = Aprof_plot.Ascii_plot
module Metrics = Aprof_core.Metrics

let profile_with mode trace =
  let p = Aprof_core.Drms_profiler.create ~mode () in
  Aprof_trace.Trace.replay trace (Aprof_core.Drms_profiler.on_batch p);
  Aprof_core.Drms_profiler.finish p

let run ppf =
  Exp_common.section ppf "fig5: im_generate cost plots (rms vs drms)";
  let heights = Aprof_workloads.Vips_sim.default_heights in
  let result =
    Aprof_workloads.Workload.run
      (Aprof_workloads.Vips_sim.pipeline ~workers:3 ~heights ~seed:11)
      ~seed:11
  in
  let trace = result.Aprof_vm.Interp.trace in
  let run_data =
    { Exp_common.name = "vips"; result; profile = profile_with `Both trace }
  in
  let d = Exp_common.merged run_data "im_generate" in
  let plot title metric points =
    let chart =
      Plot.create ~title ~x_label:metric ~y_label:"cost (executed BB)" ()
    in
    Plot.add_series chart ~name:"worst-case cost" ~marker:'*' points;
    Format.fprintf ppf "%s@." (Plot.render_string chart)
  in
  plot "Cost plot (im_generate) vs RMS" "RMS"
    (Exp_common.cost_points ~metric:`Rms d);
  plot "Cost plot (im_generate) vs DRMS" "DRMS"
    (Exp_common.cost_points ~metric:`Drms d);
  Exp_common.fit_note ppf ~label:"im_generate cost vs drms"
    (Exp_common.cost_points ~metric:`Drms d);

  Exp_common.section ppf "fig6: wbuffer_write_thread input-size separation";
  let count mode metric =
    let profile = profile_with mode trace in
    let data =
      List.assoc
        (Exp_common.routine_id run_data "wbuffer_write_thread")
        (Aprof_core.Profile.merge_threads profile)
    in
    (Metrics.distinct_points ~metric data, data)
  in
  let n_rms, d_full = count `Both `Rms in
  let n_ext, _ = count `External_only `Drms in
  let n_full, _ = count `Both `Drms in
  let calls = d_full.Aprof_core.Profile.activations in
  Format.fprintf ppf
    "  %d calls -> distinct input sizes: rms = %d, drms(external only) = %d, \
     drms(external+thread) = %d@."
    calls n_rms n_ext n_full;
  Format.fprintf ppf
    "  (paper: 110 calls collapse to 2 rms values; the full drms separates \
     all 110)@.";
  let chart =
    Plot.create ~title:"Cost plot (wbuffer_write_thread) vs DRMS"
      ~x_label:"DRMS" ~y_label:"cost (executed BB)" ()
  in
  Plot.add_series chart ~name:"worst-case cost" ~marker:'*'
    (Exp_common.cost_points ~metric:`Drms d_full);
  Format.fprintf ppf "%s@." (Plot.render_string chart)
