(* Bechamel microbenchmarks: per-event cost of each analysis on a fixed
   prepared trace — one Test per table/figure family, quantifying the
   machinery behind that experiment (e.g. the ~29% drms-over-rms handler
   overhead reported next to Table 1). *)

open Bechamel
open Toolkit

let prepared_trace () =
  let r =
    Aprof_workloads.Workload.run_spec
      (Option.get (Aprof_workloads.Registry.find "dedup"))
      ~threads:4 ~scale:120 ~seed:9
  in
  r.Aprof_vm.Interp.trace

let mysql_trace () =
  let r =
    Aprof_workloads.Workload.run
      (Aprof_workloads.Mysql_sim.select_sweep ~row_counts:[ 100; 200; 300 ]
         ~seed:3)
      ~seed:3
  in
  r.Aprof_vm.Interp.trace

let replay_with (module M : Aprof_tools.Tool.S) trace () =
  let st = M.create () in
  Aprof_trace.Trace.replay trace (M.on_batch st)

let tests () =
  let trace = prepared_trace () in
  let mtrace = mysql_trace () in
  [
    (* table1: each tool's replay cost on one pipeline trace *)
    Test.make ~name:"table1/nulgrind"
      (Staged.stage (replay_with (module Aprof_tools.Nulgrind) trace));
    Test.make ~name:"table1/memcheck"
      (Staged.stage (replay_with (module Aprof_tools.Memcheck_lite) trace));
    Test.make ~name:"table1/callgrind"
      (Staged.stage (replay_with (module Aprof_tools.Callgrind_lite) trace));
    Test.make ~name:"table1/helgrind"
      (Staged.stage (replay_with (module Aprof_tools.Helgrind_lite) trace));
    Test.make ~name:"table1/aprof-rms"
      (Staged.stage (fun () ->
           let p = Aprof_core.Drms_profiler.create ~mode:`None () in
           Aprof_trace.Trace.replay trace (Aprof_core.Drms_profiler.on_batch p)));
    Test.make ~name:"table1/aprof-drms"
      (Staged.stage (fun () ->
           let p = Aprof_core.Drms_profiler.create () in
           Aprof_trace.Trace.replay trace (Aprof_core.Drms_profiler.on_batch p)));
    (* fig4-6: profiling the buffered-scan trace that generates the cost
       plots *)
    Test.make ~name:"fig4/drms-mysql-scan"
      (Staged.stage (fun () ->
           let p = Aprof_core.Drms_profiler.create () in
           Aprof_trace.Trace.replay mtrace (Aprof_core.Drms_profiler.on_batch p)));
    (* fig11-15: the metrics pass over a finished profile *)
    Test.make ~name:"fig11-15/metrics"
      (Staged.stage
         (let p = Aprof_core.Drms_profiler.create () in
          Aprof_trace.Trace.replay trace (Aprof_core.Drms_profiler.on_batch p);
          let profile = Aprof_core.Drms_profiler.finish p in
          fun () ->
            ignore (Aprof_core.Metrics.richness_curve profile);
            ignore (Aprof_core.Metrics.input_volume_curve profile);
            ignore (Aprof_core.Metrics.suite_characterization profile)));
    (* fig16: trace generation itself (the VM), which scales with threads *)
    Test.make ~name:"fig16/vm-run-4thr"
      (Staged.stage (fun () ->
           ignore
             (Aprof_workloads.Workload.run_spec
                (Option.get (Aprof_workloads.Registry.find "md"))
                ~threads:4 ~scale:120 ~seed:9)));
  ]

let run ppf =
  Exp_common.section ppf "bechamel microbenchmarks (one per table/figure family)";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.4) ~kde:None () in
  let raw =
    List.map
      (fun test -> Benchmark.all cfg instances test)
      (tests ())
  in
  let results =
    List.map (fun r -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true
                                      ~predictors:[| Measure.run |]) Instance.monotonic_clock r)
      raw
  in
  List.iter
    (fun tbl ->
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] ->
            Format.fprintf ppf "  %-24s %12.0f ns/run@." name est
          | _ -> Format.fprintf ppf "  %-24s (no estimate)@." name)
        tbl)
    results
