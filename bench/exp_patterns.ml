(* Figures 2 and 3: producer-consumer and stream-reader patterns.  The
   drms of the consuming routine must track n while its rms stays 1. *)

module Profile = Aprof_core.Profile

let consumer_values run rname =
  let d = Exp_common.merged run rname in
  ( int_of_float d.Profile.sum_rms,
    int_of_float d.Profile.sum_drms )

let run ppf =
  Exp_common.section ppf "fig2/3: producer-consumer and data streaming";
  Format.fprintf ppf "  %-8s %-22s %-22s@." "n" "producer-consumer" "stream reader";
  Format.fprintf ppf "  %-8s %10s %10s %10s %10s@." "" "rms" "drms" "rms" "drms";
  List.iter
    (fun n ->
      let pc =
        {
          Exp_common.name = "producer_consumer";
          result =
            Aprof_workloads.Workload.run
              (Aprof_workloads.Patterns.producer_consumer ~n)
              ~seed:7;
          profile = Profile.create ();
        }
      in
      let pc =
        let p = Aprof_core.Drms_profiler.create () in
        Aprof_trace.Trace.replay pc.Exp_common.result.Aprof_vm.Interp.trace (Aprof_core.Drms_profiler.on_batch p);
        { pc with Exp_common.profile = Aprof_core.Drms_profiler.finish p }
      in
      let sr =
        let result =
          Aprof_workloads.Workload.run
            (Aprof_workloads.Patterns.stream_reader ~n)
            ~seed:7
        in
        let p = Aprof_core.Drms_profiler.create () in
        Aprof_trace.Trace.replay result.Aprof_vm.Interp.trace (Aprof_core.Drms_profiler.on_batch p);
        {
          Exp_common.name = "stream_reader";
          result;
          profile = Aprof_core.Drms_profiler.finish p;
        }
      in
      let pc_rms, pc_drms = consumer_values pc "consumer" in
      let sr_rms, sr_drms = consumer_values sr "streamReader" in
      Format.fprintf ppf "  %-8d %10d %10d %10d %10d@." n pc_rms pc_drms sr_rms
        sr_drms)
    [ 10; 50; 100; 500; 1000 ];
  Format.fprintf ppf
    "  (paper: rms stays 1 per routine while drms equals n in both patterns)@."
