(* The aprof command-line front end.

   Subcommands:
     list                      registered workloads
     run <workload>            profile a workload, print routine profiles
     plot <workload> <routine> cost plots of one routine (rms and drms)
     tools <workload>          run every analysis tool, print summaries
     overhead <workload>       Table 1-style measurement on one workload
     trace <workload>          dump the raw event trace
     fit [<workload>] [<routine>]
                               estimate empirical cost functions
                               (penalized selection; --store writes a
                               model store for the regression watch)
     diff <old> <new>          compare two model stores and flag
                               cost-function regressions
     serve                     always-on ingest daemon: concurrent ATRC
                               streams, live sharded aggregation
     push <file>               stream a recorded trace to a daemon
     ctl <command>             control a daemon (ping/stats/snapshot/stop)
     fleet <profile>...        fleet cost-throughput CSV from saved
                               profiles (offline --fleet-csv twin) *)

open Cmdliner

let scheduler_of_string = function
  | "rr" -> Ok (Aprof_vm.Scheduler.Round_robin { slice = 64 })
  | "serialized" -> Ok Aprof_vm.Scheduler.Serialized
  | "random" ->
    Ok (Aprof_vm.Scheduler.Random_preemptive { min_slice = 8; max_slice = 96 })
  | "ws" | "work-stealing" ->
    Ok (Aprof_vm.Scheduler.Work_stealing { workers = 4; slice = 64 })
  | "async" ->
    Ok (Aprof_vm.Scheduler.Async_io { slice = 64; io_delay = 16 })
  | s ->
    Error
      (Printf.sprintf "unknown scheduler %S (rr|serialized|random|ws|async)" s)

(* ----- common options ------------------------------------------------ *)

let workload_arg =
  let doc = "Workload name (see $(b,aprof list))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)

let routine_arg p =
  let doc = "Routine name within the workload." in
  Arg.(required & pos p (some string) None & info [] ~docv:"ROUTINE" ~doc)

let threads_term =
  let doc = "Number of worker threads." in
  Arg.(value & opt int 4 & info [ "j"; "threads" ] ~docv:"N" ~doc)

let scale_term =
  let doc = "Workload scale (input size)." in
  Arg.(value & opt int 400 & info [ "s"; "scale" ] ~docv:"N" ~doc)

let seed_term =
  let doc = "Random seed (runs are deterministic per seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)

let scheduler_term =
  let doc =
    "Scheduler: $(b,rr), $(b,serialized), $(b,random), $(b,ws) \
     (work-stealing) or $(b,async) (event loop)."
  in
  let parse s =
    match scheduler_of_string s with Ok v -> Ok v | Error m -> Error (`Msg m)
  in
  let sched_conv =
    Arg.conv (parse, fun ppf _ -> Format.fprintf ppf "<scheduler>")
  in
  Arg.(
    value
    & opt sched_conv (Aprof_vm.Scheduler.Round_robin { slice = 64 })
    & info [ "scheduler" ] ~docv:"POLICY" ~doc)

let find_spec name =
  match Aprof_workloads.Registry.find name with
  | Some spec -> spec
  | None ->
    Printf.eprintf "unknown workload %S; try `aprof list'\n" name;
    exit 2

(* The single-pass commands stream the VM straight into their one
   consumer; only [tools] and [overhead], which replay one run through
   several consumers, materialize the (packed) trace. *)
let execute name threads scale seed scheduler =
  let spec = find_spec name in
  Aprof_workloads.Workload.run_spec ~scheduler spec ~threads ~scale ~seed

let stream name threads scale seed scheduler on_batch =
  let spec = find_spec name in
  Aprof_workloads.Workload.run_spec_batched ~scheduler spec ~threads ~scale
    ~seed ~tool:(fun _ -> on_batch)

(* A drms profile of the run, with the run's routine table. *)
let profile_run ?track_contexts name threads scale seed scheduler =
  let p = Aprof_core.Drms_profiler.create ?track_contexts () in
  let result =
    stream name threads scale seed scheduler
      (Aprof_core.Drms_profiler.on_batch p)
  in
  (p, Aprof_core.Drms_profiler.finish p, result.Aprof_vm.Interp.routines)

let run_meta name threads scale seed scheduler =
  {
    Aprof_core.Run_meta.workload = name;
    seed;
    scale;
    threads;
    scheduler = Aprof_vm.Scheduler.policy_name scheduler;
  }

(* [load_or_exit load path]: a dump or store that cannot be read or
   parsed ends the command with status 2. *)
let load_or_exit load path =
  match load path with
  | Ok v -> v
  | Error e ->
    Printf.eprintf "cannot load %s: %s\n" path e;
    exit 2

let names_of names id =
  match List.assoc_opt id names with
  | Some n -> n
  | None -> Printf.sprintf "routine_%d" id

(* ----- list ----------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun s ->
        Printf.printf "%-20s %-8s %s\n" s.Aprof_workloads.Workload.name
          (Aprof_workloads.Workload.suite_name s.Aprof_workloads.Workload.suite)
          s.Aprof_workloads.Workload.description)
      Aprof_workloads.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List registered workloads")
    Term.(const run $ const ())

(* ----- run ------------------------------------------------------------ *)

let run_cmd =
  let run name threads scale seed scheduler output =
    let _, profile, tbl = profile_run name threads scale seed scheduler in
    (match output with
    | Some path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            (Aprof_core.Profile_io.to_string
               ~routine_name:(Aprof_trace.Routine_table.name tbl)
               ~meta:(run_meta name threads scale seed scheduler)
               profile));
      Printf.printf "profile written to %s\n" path
    | None ->
      Format.printf "%a@."
        (Aprof_core.Profile.pp (Aprof_trace.Routine_table.name tbl))
        profile);
    Format.printf "dynamic input volume: %.3f@."
      (Aprof_core.Metrics.dynamic_input_volume profile);
    match Aprof_core.Metrics.suite_characterization profile with
    | Some (t, e) ->
      Format.printf "induced first-reads: %.1f%% thread, %.1f%% external@." t e
    | None -> Format.printf "no induced first-reads observed@."
  in
  let output_term =
    let doc = "Write the profile as CSV to $(docv) instead of printing it." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Profile a workload with the drms profiler")
    Term.(
      const run $ workload_arg $ threads_term $ scale_term $ seed_term
      $ scheduler_term $ output_term)

let report_cmd =
  let run path =
    let profile, names, _ = load_or_exit Aprof_core.Profile_io.load path in
    print_string
      (Aprof_core.Profile_io.render_report ~routine_name:(names_of names)
         profile)
  in
  let path_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"Profile CSV written by $(b,aprof run -o).")
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Render a previously saved profile")
    Term.(const run $ path_arg)

(* ----- plot ----------------------------------------------------------- *)

let plot_cmd =
  let run name routine threads scale seed scheduler =
    let _, profile, tbl = profile_run name threads scale seed scheduler in
    match Aprof_trace.Routine_table.find tbl routine with
    | None ->
      Printf.eprintf "routine %S not found; routines: " routine;
      Aprof_trace.Routine_table.iter (fun _ n -> Printf.eprintf "%s " n) tbl;
      prerr_newline ();
      exit 2
    | Some rid -> (
      match List.assoc_opt rid (Aprof_core.Profile.merge_threads profile) with
      | None ->
        Printf.eprintf "no completed activations of %S\n" routine;
        exit 2
      | Some d ->
        let plot metric pts =
          let chart =
            Aprof_plot.Ascii_plot.create
              ~title:(Printf.sprintf "Cost plot (%s) vs %s" routine metric)
              ~x_label:metric ~y_label:"cost (executed BB)" ()
          in
          Aprof_plot.Ascii_plot.add_series chart ~name:"worst-case cost"
            ~marker:'*'
            (List.map (fun (n, c) -> (float_of_int n, c)) pts);
          print_string (Aprof_plot.Ascii_plot.render_string chart)
        in
        plot "RMS" (Aprof_core.Profile.cost_points ~metric:`Rms ~cost:`Max d);
        plot "DRMS" (Aprof_core.Profile.cost_points ~metric:`Drms ~cost:`Max d))
  in
  Cmd.v
    (Cmd.info "plot" ~doc:"Draw rms and drms cost plots for one routine")
    Term.(
      const run $ workload_arg $ routine_arg 1 $ threads_term $ scale_term
      $ seed_term $ scheduler_term)

(* ----- fit ------------------------------------------------------------ *)

let fit_cmd =
  let module Select = Aprof_analysis.Fit_select in
  let module Solve = Aprof_analysis.Fit_solve in
  let module Basis = Aprof_analysis.Fit_basis in
  let module Store = Aprof_analysis.Model_store in
  (* Detailed view of one routine: the whole penalized ranking. *)
  let print_routine ~bootstrap ~seed routine d =
    let points = Aprof_core.Profile.cost_points ~metric:`Drms ~cost:`Max d in
    Printf.printf "%s: %d performance points (drms, worst-case cost)\n" routine
      (List.length points);
    match Select.select ~bootstrap ~seed points with
    | None -> Printf.printf "  not enough distinct input sizes to fit\n"
    | Some sel -> (
      Printf.printf "  penalized selection (AICc), bootstrap confidence %.2f:\n"
        sel.Select.confidence;
      List.iter
        (fun ((f : Solve.fit), score) ->
          Printf.printf "    %-14s AICc = %8.2f  R^2 = %.4f%s\n"
            (Basis.name f.Solve.cls) score f.Solve.r2
            (if f.Solve.cls = sel.Select.best.Solve.cls then "  <- best" else ""))
        sel.Select.ranking;
      match sel.Select.exponent with
      | Some (k, lo, hi) ->
        Printf.printf "  power-law exponent: %.2f (95%% CI %.2f..%.2f)\n" k lo hi
      | None -> ())
  in
  let run name routine threads scale seed scheduler profile_path store_path
      bootstrap =
    let profile, routine_name, meta =
      match (name, profile_path) with
      | Some _, Some _ ->
        Printf.eprintf "give either a WORKLOAD to run or --profile, not both\n";
        exit 2
      | None, None ->
        Printf.eprintf "nothing to fit: give a WORKLOAD or --profile FILE\n";
        exit 2
      | None, Some path ->
        let profile, names, meta =
          load_or_exit Aprof_core.Profile_io.load path
        in
        (profile, names_of names, meta)
      | Some name, None ->
        let _, profile, tbl = profile_run name threads scale seed scheduler in
        ( profile,
          Aprof_trace.Routine_table.name tbl,
          Some (run_meta name threads scale seed scheduler) )
    in
    (* Only the table and [--store] need every routine fitted. *)
    let entries =
      lazy (Store.analyze ~bootstrap ~seed ~routine_name profile)
    in
    (match routine with
    | Some routine -> (
      match
        List.find_opt
          (fun (rid, _) -> routine_name rid = routine)
          (Aprof_core.Profile.merge_threads profile)
      with
      | None ->
        Printf.eprintf "routine %S not found or has no activations\n" routine;
        exit 2
      | Some (_, d) -> print_routine ~bootstrap ~seed routine d)
    | None ->
      Printf.printf "%-28s %-5s %-14s %8s %6s %10s\n" "routine" "metric"
        "class" "R^2" "conf" "exponent";
      List.iter
        (fun (e : Store.entry) ->
          Printf.printf "%-28s %-5s %-14s %8.4f %6.2f %10s\n" e.Store.routine
            (Aprof_core.Profile_io.metric_name e.Store.metric)
            (Basis.name e.Store.cls) e.Store.r2 e.Store.confidence
            (match e.Store.exponent with
            | Some (k, _, _) -> Printf.sprintf "n^%.2f" k
            | None -> "-"))
        (Lazy.force entries));
    match store_path with
    | None -> ()
    | Some path ->
      let entries = Lazy.force entries in
      let store = Store.create ?meta entries in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Store.to_string store));
      Printf.printf "%d fitted models written to %s\n" (List.length entries)
        path
  in
  let workload_opt_arg =
    let doc =
      "Workload to run and fit (see $(b,aprof list)).  Omit it when \
       fitting a saved profile with $(b,--profile)."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)
  in
  let routine_opt_arg =
    let doc =
      "Show the detailed fit of one routine instead of the summary table."
    in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"ROUTINE" ~doc)
  in
  let profile_term =
    let doc =
      "Fit a profile CSV written by $(b,aprof run -o) instead of running a \
       workload.  Run metadata saved in the profile is carried into \
       $(b,--store)."
    in
    Arg.(
      value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc)
  in
  let store_term =
    let doc =
      "Write the fitted models (with run metadata) to $(docv), for \
       $(b,aprof diff)."
    in
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"FILE" ~doc)
  in
  let bootstrap_term =
    let doc =
      "Bootstrap resamples behind the class-confidence and exponent \
       intervals (0 disables the bootstrap)."
    in
    Arg.(value & opt int 120 & info [ "bootstrap" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "fit"
       ~doc:
         "Estimate empirical cost functions (penalized model selection over \
          drms points)")
    Term.(
      const run $ workload_opt_arg $ routine_opt_arg $ threads_term
      $ scale_term $ seed_term $ scheduler_term $ profile_term $ store_term
      $ bootstrap_term)

(* ----- diff ------------------------------------------------------------ *)

let diff_cmd =
  let module Store = Aprof_analysis.Model_store in
  let module Diff = Aprof_analysis.Cost_diff in
  let run old_path new_path json fail_on_regression min_confidence slope_ratio
      ignore_meta =
    let old_store = load_or_exit Store.load old_path in
    let new_store = load_or_exit Store.load new_path in
    match
      Diff.diff ~min_confidence ~slope_ratio ~require_meta:(not ignore_meta)
        old_store new_store
    with
    | Error e ->
      Printf.eprintf "%s\n" e;
      exit 2
    | Ok report ->
      print_string (Diff.render report);
      (match json with
      | Some path ->
        Out_channel.with_open_text path (fun oc ->
            output_string oc (Diff.to_json report))
      | None -> ());
      if fail_on_regression && Diff.has_regression report then exit 1
  in
  let old_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"OLD" ~doc:"Baseline model store ($(b,aprof fit --store)).")
  in
  let new_arg =
    Arg.(
      required & pos 1 (some string) None
      & info [] ~docv:"NEW" ~doc:"Candidate model store to compare.")
  in
  let json_term =
    let doc = "Write a machine-readable diff summary to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let fail_term =
    let doc =
      "Exit 1 when any confirmed regression is found (class moved up the \
       complexity ladder with confidence, leading coefficient blew past the \
       slope gate, or an rms/drms divergence appeared)."
    in
    Arg.(value & flag & info [ "fail-on-regression" ] ~doc)
  in
  let min_confidence_term =
    let doc =
      "Bootstrap confidence both runs must reach before a class change is \
       called a regression (below it, the change is reported as info)."
    in
    Arg.(value & opt float 0.7 & info [ "min-confidence" ] ~docv:"X" ~doc)
  in
  let slope_ratio_term =
    let doc =
      "Leading-coefficient ratio treated as a constant-factor regression \
       (and its reciprocal as an improvement)."
    in
    Arg.(value & opt float 2.0 & info [ "slope-ratio" ] ~docv:"X" ~doc)
  in
  let ignore_meta_term =
    let doc =
      "Compare the stores even when run metadata is missing or differs \
       (workload, scale, threads, scheduler).  Off by default: comparing \
       different setups produces meaningless verdicts."
    in
    Arg.(value & flag & info [ "ignore-meta" ] ~doc)
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two fitted-model stores and flag cost-function regressions \
          (exit 0 clean, 1 regression with $(b,--fail-on-regression), 2 \
          incomparable)")
    Term.(
      const run $ old_arg $ new_arg $ json_term $ fail_term
      $ min_confidence_term $ slope_ratio_term $ ignore_meta_term)

(* ----- tools ----------------------------------------------------------- *)

let tools_cmd =
  let run name threads scale seed scheduler =
    let result = execute name threads scale seed scheduler in
    List.iter
      (fun (module M : Aprof_tools.Tool.S) ->
        (* The race detector reports per-race lines, not just a summary:
           print its full report (the golden test pins this rendering). *)
        if M.name = Aprof_tools.Helgrind_lite.name then begin
          let h = Aprof_tools.Helgrind_lite.create () in
          Aprof_trace.Trace.replay result.Aprof_vm.Interp.trace
            (Aprof_tools.Helgrind_lite.on_batch h);
          print_string (Aprof_tools.Helgrind_lite.render_report h)
        end
        else begin
          let st = M.create () in
          Aprof_trace.Trace.replay result.Aprof_vm.Interp.trace (M.on_batch st);
          Printf.printf "%s\n" (M.summary st)
        end)
      Aprof_tools.Harness.tools
  in
  Cmd.v
    (Cmd.info "tools" ~doc:"Run every analysis tool over one workload's trace")
    Term.(
      const run $ workload_arg $ threads_term $ scale_term $ seed_term
      $ scheduler_term)

(* Wall clock, not [Sys.time]: parallel replay spreads the work over
   domains, where process CPU time overstates elapsed time — and a rate
   is events per elapsed second. *)
let now () = Unix.gettimeofday ()

(* ----- overhead -------------------------------------------------------- *)

let overhead_cmd =
  let run name threads scale seed scheduler =
    let result = execute name threads scale seed scheduler in
    (* Five rounds: at least 0.7 s of samples (7 cells of 0.02 s). *)
    let measurements =
      Aprof_tools.Harness.measure ~now ~rounds:5
        ~program_words:result.Aprof_vm.Interp.memory_high_water
        result.Aprof_vm.Interp.trace
    in
    List.iter
      (fun m -> Format.printf "%a@." Aprof_tools.Harness.pp_measurement m)
      measurements
  in
  Cmd.v
    (Cmd.info "overhead"
       ~doc:"Measure slowdown and space of every tool on one workload")
    Term.(
      const run $ workload_arg $ threads_term $ scale_term $ seed_term
      $ scheduler_term)

(* ----- comm ------------------------------------------------------------ *)

let comm_cmd =
  let run name threads scale seed scheduler =
    let c = Aprof_core.Comm_profiler.create () in
    let result =
      stream name threads scale seed scheduler
        (Aprof_core.Comm_profiler.on_batch c)
    in
    let tbl = result.Aprof_vm.Interp.routines in
    Format.printf "%a@."
      (Aprof_core.Comm_profiler.pp
         ~routine_name:(Aprof_trace.Routine_table.name tbl))
      (Aprof_core.Comm_profiler.report c)
  in
  Cmd.v
    (Cmd.info "comm"
       ~doc:
         "Characterize shared-memory communication: which threads and           routines feed values to which")
    Term.(
      const run $ workload_arg $ threads_term $ scale_term $ seed_term
      $ scheduler_term)

(* ----- contexts --------------------------------------------------------- *)

let contexts_cmd =
  let run name threads scale seed scheduler top =
    let p, _, tbl =
      profile_run ~track_contexts:true name threads scale seed scheduler
    in
    match Aprof_core.Drms_profiler.context_results p with
    | None -> assert false
    | Some (tree, cprofile) ->
      let rows =
        Aprof_core.Profile.merge_threads cprofile
        |> List.filter (fun (n, _) -> n <> Aprof_core.Cct.root)
        |> List.sort (fun (_, a) (_, b) ->
               compare b.Aprof_core.Profile.total_cost
                 a.Aprof_core.Profile.total_cost)
      in
      let rows = List.filteri (fun i _ -> i < top) rows in
      Format.printf "%-12s %-12s %-10s %s@." "activations" "sum drms"
        "cost" "calling context";
      List.iter
        (fun (node, (d : Aprof_core.Profile.routine_data)) ->
          Format.printf "%-12d %-12.0f %-10.0f %a@."
            d.Aprof_core.Profile.activations d.Aprof_core.Profile.sum_drms
            d.Aprof_core.Profile.total_cost
            (Aprof_core.Cct.pp_path (Aprof_trace.Routine_table.name tbl) tree)
            node)
        rows
  in
  let top_term =
    let doc = "Show the $(docv) most expensive contexts." in
    Arg.(value & opt int 20 & info [ "top" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "contexts"
       ~doc:"Context-sensitive drms profile: input sizes per call path")
    Term.(
      const run $ workload_arg $ threads_term $ scale_term $ seed_term
      $ scheduler_term $ top_term)

(* ----- record / replay -------------------------------------------------- *)

module Stream = Aprof_trace.Trace_stream
module Codec = Aprof_trace.Trace_codec
module Batch = Aprof_trace.Event.Batch

(* Throughput is a diagnostic, not part of the profile: keep it off
   stdout so replays of the same run stay byte-diffable across formats. *)
let rate_line verb events seconds =
  let rate =
    if seconds > 0. then float_of_int events /. seconds /. 1e6 else 0.
  in
  Printf.eprintf "%s %d events in %.2f s (%.2fM events/s)\n" verb events
    seconds rate

(* [--profiler] of [replay] and [serve]: a name of
   {!Aprof_tools.Harness.profilers}, whose first entry (drms) is the
   default. *)
let profiler_term doc =
  let names = List.map fst Aprof_tools.Harness.profilers in
  Term.(
    const (fun name -> List.assoc name Aprof_tools.Harness.profilers)
    $ Arg.(
        value
        & opt (enum (List.map (fun n -> (n, n)) names)) (List.hd names)
        & info [ "profiler" ] ~docv:"P" ~doc))

let record_cmd =
  let run name threads scale seed scheduler output format trace_format entropy =
    let spec = find_spec name in
    let w = spec.Aprof_workloads.Workload.make ~threads ~scale ~seed in
    let t0 = now () in
    let events, bytes =
      try
        Out_channel.with_open_bin output (fun oc ->
          (* The sink is created once the interpreter hands us its routine
             table, so the binary writer can embed names as they are
             interned; recorded traces never live in memory.  Both
             formats take the interpreter's recycled batches: binary
             encodes them directly, with no per-event variant or
             closure; text unpacks each event into its line. *)
          let sink = ref None in
          let result =
            Aprof_workloads.Workload.run_batched ~scheduler w ~seed
              ~tool:(fun routines ->
                let s =
                  match format with
                  | `Binary ->
                    Codec.batch_writer ~format_version:trace_format ~entropy
                      ~routine_name:(Aprof_trace.Routine_table.name routines)
                      oc
                  | `Text -> Stream.text_sink oc
                in
                sink := Some s;
                s.Stream.emit_batch)
          in
          Option.iter (fun s -> s.Stream.close_batch ()) !sink;
          (result.Aprof_vm.Interp.events_emitted, Out_channel.pos oc))
      with Sys_error msg ->
        Printf.eprintf "cannot record to %s: %s\n" output msg;
        exit 2
    in
    Printf.printf "recorded %d events (%Ld bytes, %s) to %s\n" events bytes
      (match format with `Binary -> "binary" | `Text -> "text")
      output;
    rate_line "recorded" events (now () -. t0)
  in
  let output_term =
    let doc = "Trace file to write." in
    Arg.(
      required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let format_term =
    let doc = "Trace encoding: $(b,binary) (compact varint) or $(b,text)." in
    Arg.(
      value
      & opt (enum [ ("binary", `Binary); ("text", `Text) ]) `Binary
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let trace_format_term =
    let doc =
      "Binary trace format version to write: $(b,1) (bare records), $(b,2) \
       (checksummed chunk frames, the default), or $(b,3) \
       (redundancy-suppressed chunks: delta packed, repeats collapsed). \
       Ignored with $(b,--format text)."
    in
    Arg.(
      value
      & opt (enum [ ("1", 1); ("2", 2); ("3", 3) ]) Codec.version
      & info [ "trace-format" ] ~docv:"V" ~doc)
  in
  let entropy_term =
    let doc =
      "With $(b,--trace-format 3), entropy-code each chunk (canonical \
       Huffman): roughly half the bytes again, at some decode-speed cost. \
       Meant for archival traces rather than replay working sets."
    in
    Arg.(value & flag & info [ "entropy" ] ~doc)
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Execute a workload and stream its event trace to a file without \
          materializing it")
    Term.(
      const run $ workload_arg $ threads_term $ scale_term $ seed_term
      $ scheduler_term $ output_term $ format_term $ trace_format_term
      $ entropy_term)

(* JSON output is hand-rolled — a flat summary object, no dependency. *)
let json_escape = Aprof_util.Json.escape

let replay_json (result : Aprof_tools.Replay_driver.t) =
  let buf = Buffer.create 1024 in
  let file (r : Aprof_tools.Replay_driver.file_report) =
    let status =
      match (r.error, r.drops) with
      | Some _, _ -> "failed"
      | None, _ :: _ -> "salvaged"
      | None, [] -> "ok"
    in
    Printf.bprintf buf
      "    {\"path\": \"%s\", \"format\": \"%s\", \"status\": \"%s\", \
       \"events\": %d"
      (json_escape r.path) (json_escape r.format) status r.events;
    (match r.error with
    | Some e -> Printf.bprintf buf ", \"error\": \"%s\"" (json_escape e)
    | None -> ());
    Printf.bprintf buf ", \"drops\": [";
    List.iteri
      (fun i (d : Codec.drop) ->
        if i > 0 then Buffer.add_string buf ", ";
        Printf.bprintf buf
          "{\"chunk\": %d, \"offset\": %d, \"bytes\": %d, \"events\": %d, \
           \"reason\": \"%s\"}"
          d.Codec.drop_chunk d.Codec.drop_offset d.Codec.drop_bytes
          d.Codec.drop_events
          (json_escape d.Codec.drop_reason))
      r.drops;
    Buffer.add_string buf "]}"
  in
  Printf.bprintf buf "{\n  \"events\": %d,\n  \"failed\": %b,\n  \"files\": [\n"
    result.Aprof_tools.Replay_driver.events
    result.Aprof_tools.Replay_driver.failed;
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      file r)
    result.Aprof_tools.Replay_driver.files;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let replay_cmd =
  let run paths profiler with_tools jobs keep_going json =
    (* Streams are single-use: every consumer re-opens the file and decodes
       incrementally, so replay memory stays bounded by the I/O chunk.
       Binary traces decode and dispatch a packed batch at a time — the
       allocation-free path; the text format goes through the per-event
       decoder lifted into batches.

       With [-j N], a single binary trace replays through the sharded
       engine ({!Aprof_tools.Tool.replay_parallel}): the chunk index
       partitions the trace's threads over up to N shards, each shard
       replays its chunks in file order as one task on at most
       min(N, cores) domains, and the shard states merge at the join.
       Every profiler — drms, rms and naive — shards this way; of the
       tools only helgrind keeps a sequential replay (its lockset
       analysis needs the interleaved global order).  Several trace
       files parallelize across files instead, merging the resulting
       profiles.  Text traces and index-less files also fall back to
       sequential replay.

       The actual replay lives in {!Aprof_tools.Replay_driver}; this
       command only routes its buffered output: profile report and tool
       summaries to stdout, rates / drop reports / errors to stderr,
       and the machine-readable summary to [--json]. *)
    if jobs < 1 then begin
      Printf.eprintf "invalid job count %d\n" jobs;
      exit 2
    end;
    let result =
      Aprof_tools.Replay_driver.replay ~jobs ~profiler ~with_tools ~keep_going
        ~now paths
    in
    let name_of id =
      match Hashtbl.find_opt result.Aprof_tools.Replay_driver.names id with
      | Some n -> n
      | None -> Printf.sprintf "routine_%d" id
    in
    (* Diagnostics first, on stderr: what salvage dropped, what failed. *)
    List.iter
      (fun (r : Aprof_tools.Replay_driver.file_report) ->
        List.iter
          (fun (d : Codec.drop) ->
            Printf.eprintf "salvage: %s: dropped chunk %s (offset %d%s): %s\n"
              r.path
              (if d.Codec.drop_chunk < 0 then "?"
               else string_of_int d.Codec.drop_chunk)
              d.Codec.drop_offset
              (if d.Codec.drop_events < 0 then ""
               else Printf.sprintf ", ~%d events" d.Codec.drop_events)
              d.Codec.drop_reason)
          r.drops;
        match r.error with
        | Some msg -> Printf.eprintf "cannot replay %s: %s\n" r.path msg
        | None -> ())
      result.Aprof_tools.Replay_driver.files;
    (* The profile report covers the files that decoded; nothing is
       printed for a file that failed mid-replay, so a truncated input
       can never masquerade as a complete report. *)
    let any_ok =
      List.exists
        (fun (r : Aprof_tools.Replay_driver.file_report) -> r.error = None)
        result.Aprof_tools.Replay_driver.files
    in
    if any_ok then begin
      print_string
        (Aprof_core.Profile_io.render_report ~routine_name:name_of
           result.Aprof_tools.Replay_driver.profile);
      rate_line "replayed" result.Aprof_tools.Replay_driver.events
        result.Aprof_tools.Replay_driver.seconds;
      List.iter
        (fun (r : Aprof_tools.Replay_driver.file_report) ->
          List.iter
            (fun (t : Aprof_tools.Replay_driver.tool_run) ->
              Printf.printf "%s\n" t.summary;
              rate_line "replayed" t.tool_events t.tool_seconds)
            r.tool_runs)
        result.Aprof_tools.Replay_driver.files
    end;
    (match json with
    | Some path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (replay_json result))
    | None -> ());
    if result.Aprof_tools.Replay_driver.failed then exit 2
  in
  let paths_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:
            "Trace file(s) written by $(b,aprof record) (binary or text; the \
             format is auto-detected).  With several files, each replays \
             through its own profiler instance in parallel and the profiles \
             are merged.")
  in
  let tools_term =
    let doc = "Additionally replay the trace through every standard tool." in
    Arg.(value & flag & info [ "tools" ] ~doc)
  in
  let jobs_term =
    let doc =
      "Replay in $(docv) shards.  A binary trace's chunk index \
       partitions its threads over $(docv) shards, each replayed as one \
       task on at most as many domains as the host has cores; every \
       profiler (drms, rms, naive) and every standard tool except \
       helgrind shards this way, with results identical to $(b,-j 1).  \
       Several traces replay as one task each instead.  Text traces \
       replay sequentially."
    in
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let keep_going_term =
    let doc =
      "Salvage damaged binary traces instead of failing them: corrupt or \
       truncated chunks are skipped (re-synchronizing at the next chunk \
       boundary via the shard index or the v2 frame lengths) and each \
       dropped region is reported on stderr as $(b,salvage: FILE: dropped \
       chunk N (offset B, ~K events): REASON) and in the $(b,--json) \
       summary.  Files stay isolated either way: a failure in one never \
       aborts the others, and any failed file makes the exit status \
       nonzero."
    in
    Arg.(value & flag & info [ "k"; "keep-going" ] ~doc)
  in
  let json_term =
    let doc =
      "Write a machine-readable replay summary to $(docv): total events, \
       overall failure flag, and per file its detected format (text, \
       binary-v1/v2/v3, or unknown), status (ok/salvaged/failed), event \
       count, error, and dropped regions (chunk ordinal, byte offset, \
       payload bytes, event count, reason; -1 marks an unknown field)."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Stream recorded trace file(s) through a profiler (and tools)")
    Term.(
      const run $ paths_arg
      $ profiler_term
          "Profiler to replay into: $(b,drms), $(b,rms) or $(b,naive)."
      $ tools_term $ jobs_term
      $ keep_going_term $ json_term)

(* ----- merge ----------------------------------------------------------- *)

let merge_cmd =
  (* Inputs stream through one at a time — each dump is loaded, folded
     into the accumulator with [merge_into], and released, so memory
     stays bounded by the largest single input, not the sum.  A file
     that fails to load is reported and skipped; the merge of the rest
     still comes out, and the failures make the exit status 2 at the
     end (mirroring replay's per-file isolation). *)
  let run output inputs =
    let profile = Aprof_core.Profile.create () in
    let names = Hashtbl.create 64 in
    let failures = ref [] in
    let merged = ref 0 in
    List.iter
      (fun path ->
        match Aprof_core.Profile_io.load path with
        | Ok (p, ns, _) ->
          Aprof_core.Profile.merge_into ~into:profile p;
          List.iter
            (fun (id, n) ->
              if not (Hashtbl.mem names id) then Hashtbl.add names id n)
            ns;
          incr merged
        | Error e -> failures := (path, e) :: !failures)
      inputs;
    let routine_name id =
      match Hashtbl.find_opt names id with
      | Some n -> n
      | None -> Printf.sprintf "routine_%d" id
    in
    (match output with
    | Some path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            (Aprof_core.Profile_io.to_string ~routine_name profile));
      Printf.printf "merged %d of %d profiles into %s\n" !merged
        (List.length inputs) path
    | None ->
      print_string
        (Aprof_core.Profile_io.render_report ~routine_name profile));
    match List.rev !failures with
    | [] -> ()
    | fs ->
      List.iter
        (fun (path, e) -> Printf.eprintf "cannot load %s: %s\n" path e)
        fs;
      Printf.eprintf "%d of %d inputs failed to load\n" (List.length fs)
        (List.length inputs);
      exit 2
  in
  let inputs_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:
            "Profile CSVs written by $(b,aprof run -o) or $(b,aprof merge \
             -o).  The dumps must share a routine-id universe — i.e. come \
             from runs or shards of the same workload.")
  in
  let output_term =
    let doc =
      "Write the merged profile as CSV to $(docv); without it, render the \
       merged report."
    in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:
         "Merge saved profiles (shards of one trace, or runs over several \
          traces) into one")
    Term.(const run $ output_term $ inputs_arg)

(* ----- serve / push / ctl / fleet --------------------------------------- *)

let default_socket = "/tmp/aprof.sock"

let resolve_host host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
    | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
    | _ -> failwith ("cannot resolve " ^ host))

(* ADDR is [unix:PATH] or [HOST:PORT]; shared by push and ctl. *)
let parse_addr s =
  if String.length s >= 5 && String.sub s 0 5 = "unix:" then
    Ok (Unix.ADDR_UNIX (String.sub s 5 (String.length s - 5)))
  else
    match String.rindex_opt s ':' with
    | None -> Ok (Unix.ADDR_UNIX s)  (* a bare path *)
    | Some i -> (
      let host = String.sub s 0 i in
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | None -> Error (Printf.sprintf "bad port in %S" s)
      | Some port -> (
        try Ok (Unix.ADDR_INET (resolve_host host, port))
        with Failure m -> Error m))

let connect_term =
  let doc =
    "Daemon address: $(b,unix:PATH), a bare socket path, or $(b,HOST:PORT)."
  in
  Arg.(
    value
    & opt string ("unix:" ^ default_socket)
    & info [ "c"; "connect" ] ~docv:"ADDR" ~doc)

let connect_to addr_s =
  match parse_addr addr_s with
  | Error m ->
    Printf.eprintf "%s\n" m;
    exit 2
  | Ok addr -> (
    let fd =
      Unix.socket
        (match addr with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | _ -> Unix.PF_INET)
        Unix.SOCK_STREAM 0
    in
    try
      Unix.connect fd addr;
      fd
    with Unix.Unix_error (e, _, _) ->
      Printf.eprintf "cannot connect to %s: %s\n" addr_s
        (Unix.error_message e);
      exit 2)

let serve_cmd =
  let module Server = Aprof_serve.Server in
  let run unix_path tcp profiler jobs snapshot_every out fleet_csv
      idle_timeout salvage quiet =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let tcp =
      match tcp with
      | None -> None
      | Some s -> (
        match String.rindex_opt s ':' with
        | Some i -> (
          match
            int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
          with
          | Some port -> Some (String.sub s 0 i, port)
          | None ->
            Printf.eprintf "bad --tcp %S (HOST:PORT)\n" s;
            exit 2)
        | None ->
          Printf.eprintf "bad --tcp %S (HOST:PORT)\n" s;
          exit 2)
    in
    (* Default to the conventional Unix socket when no listener is given. *)
    let unix_path =
      match (unix_path, tcp) with
      | None, None -> Some default_socket
      | u, _ -> u
    in
    let log = if quiet then ignore else fun m -> Printf.eprintf "[serve] %s\n%!" m in
    let cfg =
      {
        Server.default_config with
        unix_path;
        tcp;
        profiler;
        jobs =
          (if jobs = 0 then Server.default_config.Server.jobs else jobs);
        snapshot_every;
        snapshot_profile = out;
        fleet_csv;
        idle_timeout;
        salvage;
        log;
      }
    in
    let srv =
      try Server.start cfg
      with Unix.Unix_error (e, fn, arg) ->
        Printf.eprintf "cannot listen: %s(%s): %s\n" fn arg
          (Unix.error_message e);
        exit 2
    in
    let stop _ = Server.request_stop srv in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    (* SIGHUP = "write a snapshot now", the classic daemon convention. *)
    Sys.set_signal Sys.sighup
      (Sys.Signal_handle (fun _ -> Server.request_snapshot srv));
    Server.wait srv;
    let s = Server.stats srv in
    log
      (Printf.sprintf
         "stopped: %d connections, %d traces, %d events, %d drops"
         s.Server.s_conns s.Server.s_traces s.Server.s_events s.Server.s_drops)
  in
  let unix_term =
    let doc = "Listen on a Unix-domain socket at $(docv) (the default \
               listener, at " ^ default_socket ^ ", when no --tcp is given)." in
    Arg.(value & opt (some string) None & info [ "unix" ] ~docv:"PATH" ~doc)
  in
  let tcp_term =
    let doc = "Additionally (or instead) listen on $(docv) (HOST:PORT; \
               port 0 picks one)." in
    Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)
  in
  let jobs_term =
    let doc = "Ingest workers (0 = one per available core)." in
    Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let every_term =
    let doc = "Write snapshot artifacts every $(docv) seconds (0 = only on \
               SIGHUP or a SNAPSHOT control command, plus the final one)." in
    Arg.(value & opt float 0. & info [ "snapshot-every" ] ~docv:"SECS" ~doc)
  in
  let out_term =
    let doc = "Write the aggregated profile CSV to $(docv) at each snapshot." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let fleet_term =
    let doc = "Write the per-client/aggregate/top-routine fleet CSV to \
               $(docv) at each snapshot." in
    Arg.(value & opt (some string) None & info [ "fleet-csv" ] ~docv:"FILE" ~doc)
  in
  let idle_term =
    let doc = "Kill a connection silent for $(docv) seconds (0 = never)." in
    Arg.(value & opt float 0. & info [ "idle-timeout" ] ~docv:"SECS" ~doc)
  in
  let salvage_term =
    let doc =
      "Salvage damaged streams: drop corrupt chunks (reported in the log) \
       instead of failing the connection."
    in
    Arg.(value & flag & info [ "k"; "keep-going" ] ~doc)
  in
  let quiet_term =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress the serve log.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the always-on ingest daemon: accept concurrent ATRC streams, \
          aggregate live, snapshot on demand")
    Term.(
      const run $ unix_term $ tcp_term
      $ profiler_term
          "Profiler run over each stream: $(b,drms), $(b,rms) or $(b,naive)."
      $ jobs_term $ every_term $ out_term $ fleet_term $ idle_term
      $ salvage_term $ quiet_term)

let push_cmd =
  let run connect path repeat flip_byte =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let fd = connect_to connect in
    let chunk = Bytes.create (64 * 1024) in
    let sent = ref 0 in
    let send_once () =
      In_channel.with_open_bin path (fun ic ->
          let rec loop off =
            match In_channel.input ic chunk 0 (Bytes.length chunk) with
            | 0 -> ()
            | n ->
              (* Deterministic fault injection for the isolation tests:
                 flip one byte at a file offset, every repetition. *)
              (match flip_byte with
              | Some fo when fo >= off && fo < off + n ->
                Bytes.set chunk (fo - off)
                  (Char.chr (Char.code (Bytes.get chunk (fo - off)) lxor 0xff))
              | _ -> ());
              let rec write o =
                if o < n then
                  match Unix.write fd chunk o (n - o) with
                  | 0 -> failwith "socket closed"
                  | k -> write (o + k)
              in
              write 0;
              sent := !sent + n;
              loop (off + n)
          in
          loop 0)
    in
    (try
       for _ = 1 to repeat do
         send_once ()
       done;
       Unix.shutdown fd Unix.SHUTDOWN_SEND
     with
    | Sys_error msg | Failure msg ->
      Printf.eprintf "push failed: %s\n" msg;
      exit 2
    | Unix.Unix_error (e, _, _) ->
      Printf.eprintf "push failed: %s\n" (Unix.error_message e);
      exit 2);
    (* Wait for the server to consume everything and close its end, so
       "push; ctl snapshot" sequences observe their own bytes. *)
    let b = Bytes.create 1 in
    (try while Unix.read fd b 0 1 > 0 do () done with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Printf.eprintf "pushed %d bytes (%s x%d) to %s\n" !sent path repeat connect
  in
  let path_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Binary trace written by $(b,aprof record) to stream.")
  in
  let repeat_term =
    let doc = "Stream the trace $(docv) times back-to-back on one connection." in
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N" ~doc)
  in
  let flip_term =
    let doc =
      "Corrupt the stream by flipping the byte at file offset $(docv) \
       (fault-injection aid for testing isolation and salvage)."
    in
    Arg.(value & opt (some int) None & info [ "flip-byte" ] ~docv:"OFF" ~doc)
  in
  Cmd.v
    (Cmd.info "push"
       ~doc:"Stream a recorded trace file to a running $(b,aprof serve) daemon")
    Term.(const run $ connect_term $ path_arg $ repeat_term $ flip_term)

let ctl_cmd =
  let run connect command =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let fd = connect_to connect in
    let cmd = String.uppercase_ascii command ^ "\n" in
    let b = Bytes.of_string cmd in
    (try ignore (Unix.write fd b 0 (Bytes.length b))
     with Unix.Unix_error (e, _, _) ->
       Printf.eprintf "ctl failed: %s\n" (Unix.error_message e);
       exit 2);
    let buf = Buffer.create 256 in
    let chunk = Bytes.create 1024 in
    (try
       let rec loop () =
         match Unix.read fd chunk 0 (Bytes.length chunk) with
         | 0 -> ()
         | n ->
           Buffer.add_subbytes buf chunk 0 n;
           loop ()
       in
       loop ()
     with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ());
    let reply = Buffer.contents buf in
    print_string reply;
    if String.length reply >= 3 && String.sub reply 0 3 = "ERR" then exit 1
  in
  let command_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"COMMAND"
          ~doc:
            "Control command: $(b,ping), $(b,stats), $(b,snapshot) (write \
             the configured artifacts now) or $(b,stop).")
  in
  Cmd.v
    (Cmd.info "ctl" ~doc:"Send a control command to a running daemon")
    Term.(const run $ connect_term $ command_arg)

let fleet_cmd =
  (* Offline twin of --fleet-csv: the same document computed from saved
     profile dumps, one client row per file.  Event counts are not
     recorded in profile dumps, so activations stand in for events and
     the throughput column is zero. *)
  let run output top inputs =
    let merged = Aprof_core.Profile.create () in
    let names = Hashtbl.create 64 in
    let failures = ref [] in
    let clients =
      List.map
        (fun path ->
          match Aprof_core.Profile_io.load path with
          | Ok (p, ns, _) ->
            Aprof_core.Profile.merge_into ~into:merged p;
            List.iter
              (fun (id, n) ->
                if not (Hashtbl.mem names id) then Hashtbl.add names id n)
              ns;
            {
              Aprof_serve.Fleet.name = path;
              events = Aprof_core.Profile.total_activations p;
              traces = 1;
              drops = 0;
              bytes = 0;
              seconds = 0.;
              error = None;
            }
          | Error e ->
            failures := (path, e) :: !failures;
            {
              Aprof_serve.Fleet.name = path;
              events = 0;
              traces = 0;
              drops = 0;
              bytes = 0;
              seconds = 0.;
              error = Some e;
            })
        inputs
    in
    let name_of id =
      match Hashtbl.find_opt names id with
      | Some n -> n
      | None -> Printf.sprintf "routine_%d" id
    in
    let doc =
      Aprof_serve.Fleet.render ~top ~seconds:0. ~name_of ~profile:merged
        clients
    in
    (match output with
    | Some path -> Out_channel.with_open_text path (fun oc -> output_string oc doc)
    | None -> print_string doc);
    match !failures with
    | [] -> ()
    | fs ->
      Printf.eprintf "%d of %d inputs failed to load\n" (List.length fs)
        (List.length inputs);
      exit 2
  in
  let inputs_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"PROFILE"
          ~doc:"Profile CSVs written by $(b,aprof run -o) or a serve snapshot.")
  in
  let output_term =
    let doc = "Write the fleet CSV to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let top_term =
    let doc = "Number of top cost-moving routines to include." in
    Arg.(value & opt int 20 & info [ "top" ] ~docv:"K" ~doc)
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Summarize saved profiles as a fleet cost-throughput CSV (offline \
          twin of $(b,aprof serve --fleet-csv))")
    Term.(const run $ output_term $ top_term $ inputs_arg)

(* ----- trace ----------------------------------------------------------- *)

let trace_cmd =
  let run name threads scale seed scheduler limit =
    (* Print the first [limit] events as they are emitted; count the
       rest. *)
    let printed = ref 0 in
    let print b =
      let k = Batch.length b in
      let take =
        match limit with Some l -> min k (max 0 (l - !printed)) | None -> k
      in
      for i = 0 to take - 1 do
        print_endline (Aprof_trace.Event.to_line (Batch.get b i))
      done;
      printed := !printed + take
    in
    let result = stream name threads scale seed scheduler print in
    let n = result.Aprof_vm.Interp.events_emitted in
    let shown = match limit with Some l -> min l n | None -> n in
    if shown < n then Printf.eprintf "... (%d more events)\n" (n - shown)
  in
  let limit_term =
    let doc = "Print at most $(docv) events." in
    Arg.(value & opt (some int) None & info [ "limit" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Dump a workload's event trace (one event per line)")
    Term.(
      const run $ workload_arg $ threads_term $ scale_term $ seed_term
      $ scheduler_term $ limit_term)

(* ----- main ------------------------------------------------------------ *)

let () =
  let doc = "input-sensitive profiling with dynamic workloads (aprof-drms)" in
  let info = Cmd.info "aprof" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; report_cmd; record_cmd; replay_cmd; merge_cmd;
            serve_cmd; push_cmd; ctl_cmd; fleet_cmd;
            plot_cmd; fit_cmd; diff_cmd; tools_cmd; overhead_cmd; comm_cmd;
            contexts_cmd; trace_cmd ]))
