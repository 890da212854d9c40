(* Parallel replay scaling: aggregate events/second of the
   work-stealing replay engine at 1..4 workers, per shardable tool.

   A canneal trace is recorded once (binary, with the shard index) —
   canneal because its event mix exercises what the profilers actually
   do (9% calls, so activations and ancestor searches are real work,
   unlike e.g. blackscholes whose trace has no calls at all and
   degenerates into a pure decode benchmark) — then each shardable
   tool replays it through
   [Tool.replay_parallel] at increasing job counts; shards claim chunks
   from per-worker steal-half deques, each worker reading through its
   own seekable session.  Wall-clock time is the denominator — CPU time
   would erase the parallelism being measured.  [events] counts each
   trace event once (broadcast copies excluded), so the column is
   comparable across tools and job counts.  Every row records the
   host's core count and the number of domains actually backing the
   pool: on a single-core machine, or under the 4.14 sequential
   backend, [domains] exposes why the curve is flat — the speedup
   column is only meaningful when [cores] and [domains] both reach the
   job count (the CI gate checks exactly that). *)

module Workload = Aprof_workloads.Workload
module Registry = Aprof_workloads.Registry
module Stream = Aprof_trace.Trace_stream
module Codec = Aprof_trace.Trace_codec
module Tool = Aprof_tools.Tool
module Harness = Aprof_tools.Harness
module Par = Aprof_util.Par
module Vec = Aprof_util.Vec

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let max_jobs = 4

let run ~quick ppf =
  Exp_common.section ppf "parallel: sharded replay scaling";
  let target = if quick then 150_000 else 3_000_000 in
  let spec =
    match Registry.find "canneal" with
    | Some s -> s
    | None -> failwith "canneal workload missing"
  in
  (* Trace length is near-linear in scale, so one cheap probe run pins
     the scale that lands on [target] — doubling until past it can
     overshoot by 2x, and sharding efficiency is size-sensitive (the
     foreign write-timestamp working set grows with the trace), so the
     gate should measure the regime it names. *)
  let result =
    let probe_scale = 10_000 in
    let probe = Workload.run_spec spec ~threads:4 ~scale:probe_scale ~seed:42 in
    let per_unit =
      float_of_int (Aprof_trace.Trace.length probe.Aprof_vm.Interp.trace)
      /. float_of_int probe_scale
    in
    let scale =
      max probe_scale (int_of_float (float_of_int target /. per_unit))
    in
    Workload.run_spec spec ~threads:4 ~scale ~seed:42
  in
  let trace = result.Aprof_vm.Interp.trace in
  let routines = result.Aprof_vm.Interp.routines in
  let cores = Par.available_parallelism () in
  Format.fprintf ppf "trace: %d events, %d cores available@." (Aprof_trace.Trace.length trace)
    cores;
  (* On one core a speedup column would only ever show noise around
     1.0x and invite misreading as "parallelism is broken": warn loudly
     and omit the column entirely (text and JSON) instead of printing a
     number that cannot mean anything here. *)
  let single_core = cores <= 1 in
  if single_core then
    Format.fprintf ppf
      "  *** cores: 1 — single-core host: scaling cannot be measured; \
       speedup_vs_j1 is omitted from all rows (run on a multi-core \
       machine, e.g. the CI parallel gate, for real curves) ***@.";
  let path = Filename.temp_file "aprof_parallel" ".atrc" in
  Out_channel.with_open_bin path (fun oc ->
      let sink =
        Codec.batch_writer
          ~routine_name:(Aprof_trace.Routine_table.name routines)
          oc
      in
      Aprof_trace.Trace.replay trace sink.Stream.emit_batch;
      sink.Stream.close_batch ());
  (* The v3 copy of the same trace is written here, next to the v2 one,
     so the trace vector is dead before any timed replay below — held
     live it would be marked by every major slice inside a measurement. *)
  let path_v3 = Filename.temp_file "aprof_parallel_v3" ".atrc" in
  Out_channel.with_open_bin path_v3 (fun oc ->
      let sink =
        Codec.batch_writer ~format_version:3
          ~routine_name:(Aprof_trace.Routine_table.name routines)
          oc
      in
      Aprof_trace.Trace.replay trace sink.Stream.emit_batch;
      sink.Stream.close_batch ());
  let reps = if quick then 1 else 3 in
  let shards =
    match Tool.Shards.of_file path with
    | Some shards -> shards
    | None -> failwith "recorded trace has no chunk index"
  in
  let scaling_rows ~label ~shards (module M : Tool.S) =
    let replay_at jobs =
      let pool = Par.create ~jobs () in
      let one () =
        let seconds, (_, events, _) =
          wall (fun () -> Tool.replay_parallel ~pool ~jobs ~shards (module M))
        in
        (seconds, events)
      in
      (* Best of [reps]: replay times are short enough to jitter. *)
      let best = ref (one ()) in
      for _ = 2 to reps do
        let r = one () in
        if fst r < fst !best then best := r
      done;
      !best
    in
    let base = ref 0. in
    for jobs = 1 to max_jobs do
      let seconds, events = replay_at jobs in
      if jobs = 1 then base := seconds;
      let mev = float_of_int events /. seconds /. 1e6 in
      let speedup = !base /. seconds in
      if single_core then
        Format.fprintf ppf
          "  %-13s jobs=%d  %8d events  %.3fs  %6.2fM ev/s@." label jobs
          events seconds mev
      else
        Format.fprintf ppf
          "  %-13s jobs=%d  %8d events  %.3fs  %6.2fM ev/s  speedup %.2fx@."
          label jobs events seconds mev speedup;
      Exp_common.emit_row ~experiment:"parallel"
        ([
           ("tool", Exp_common.String label);
           ("jobs", Exp_common.Int jobs);
           ("cores", Exp_common.Int cores);
           ( "domains",
             (* Domains the pool actually runs on: the 4.14 backend has
                no Domain module and executes every task on the caller. *)
             Exp_common.Int (if Par.parallel_backend then jobs else 1) );
           ("events", Exp_common.Int events);
           ("seconds", Exp_common.Float seconds);
           ("mev_per_s", Exp_common.Float mev);
         ]
        @
        if single_core then []
        else [ ("speedup_vs_j1", Exp_common.Float speedup) ])
    done
  in
  (* Every tool that shards within a trace; helgrind ([Global]) would
     only replay in order at every job count. *)
  List.iter
    (fun (module M : Tool.S) ->
      match M.sharding with
      | Tool.Global -> ()
      | Tool.By_chunk _ | Tool.By_thread _ ->
        scaling_rows ~label:M.name ~shards (module M))
    Harness.tools;
  (* The same trace as a v3 (packed) file through the drms profiler:
     work-stealing claims whole chunks, and a v3 chunk decodes through
     the transform layer inside each worker's session — the row labels
     carry a "-v3" suffix so per-format curves stay distinguishable. *)
  let module Drms = Aprof_tools.Aprof_adapters.Drms in
  let shards_v3 =
    match Tool.Shards.of_file path_v3 with
    | Some shards -> shards
    | None -> failwith "v3 trace has no chunk index"
  in
  scaling_rows ~label:(Drms.name ^ "-v3") ~shards:shards_v3 (module Drms);
  Sys.remove path_v3;
  Sys.remove path
