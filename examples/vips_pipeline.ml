(* The vips case study (Figures 5 and 6): a threaded image pipeline with
   a background write-buffer thread, profiled under all three drms
   configurations.

     dune exec examples/vips_pipeline.exe *)

module Profile = Aprof_core.Profile
module Metrics = Aprof_core.Metrics

let () =
  let heights = Aprof_workloads.Vips_sim.default_heights in
  let result =
    Aprof_workloads.Workload.run
      (Aprof_workloads.Vips_sim.pipeline ~workers:3 ~heights ~seed:31)
      ~scheduler:(Aprof_vm.Scheduler.Random_preemptive { min_slice = 8; max_slice = 96 })
      ~seed:31
  in
  let trace = result.Aprof_vm.Interp.trace in
  let tbl = result.Aprof_vm.Interp.routines in
  let wbuffer = Option.get (Aprof_trace.Routine_table.find tbl "wbuffer_write_thread") in
  let profile_with mode =
    let p = Aprof_core.Drms_profiler.create ~mode () in
    Aprof_trace.Trace.replay trace (Aprof_core.Drms_profiler.on_batch p);
    List.assoc wbuffer
      (Profile.merge_threads (Aprof_core.Drms_profiler.finish p))
  in
  let full = profile_with `Both in
  let ext = profile_with `External_only in
  Printf.printf "wbuffer_write_thread across %d calls:\n" full.Profile.activations;
  Printf.printf "  distinct rms values:                 %d\n"
    (Metrics.distinct_points ~metric:`Rms full);
  Printf.printf "  distinct drms values (external only): %d\n"
    (Metrics.distinct_points ~metric:`Drms ext);
  Printf.printf "  distinct drms values (ext + thread):  %d\n"
    (Metrics.distinct_points ~metric:`Drms full);
  print_newline ();
  (match Metrics.induced_breakdown full with
  | Some (t, e) ->
    Printf.printf
      "its induced first-reads: %.0f%% from other threads, %.0f%% from the kernel\n"
      (100. *. t) (100. *. e)
  | None -> ());
  print_newline ();
  print_endline "worst-case cost plot against the full drms:";
  let chart =
    Aprof_plot.Ascii_plot.create ~title:"Cost plot (wbuffer_write_thread)"
      ~x_label:"DRMS" ~y_label:"cost (executed BB)" ()
  in
  Aprof_plot.Ascii_plot.add_series chart ~name:"calls" ~marker:'*'
    (List.map
       (fun (p : Profile.point) ->
         (float_of_int p.Profile.input, float_of_int p.Profile.max_cost))
       full.Profile.drms_points);
  print_string (Aprof_plot.Ascii_plot.render_string chart)
