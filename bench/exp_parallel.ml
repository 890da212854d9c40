(* Parallel replay scaling: aggregate events/second of the sharded
   replay engine at 1..4 shards, per shardable tool.

   A canneal trace is recorded once (binary, with the shard index) —
   canneal because its event mix exercises what the profilers actually
   do (9% calls, so activations and ancestor searches are real work,
   unlike e.g. blackscholes whose trace has no calls at all and
   degenerates into a pure decode benchmark) — then each shardable
   tool replays it through
   [Tool.replay_parallel] at increasing job counts; each shard is one
   task reading its chunks through its own seekable session.
   Wall-clock time is the denominator — CPU time would erase the
   parallelism being measured.  A tool's rows come from interleaved
   rounds, each replaying once at every job count, so host drift lands
   on every column alike; a row reports the median rate over the rounds
   with its quartiles, and [speedup_vs_j1] divides medians.  [events]
   counts each
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
  let rounds = if quick then 3 else 11 in
  let shards =
    match Tool.Shards.of_file path with
    | Some shards -> shards
    | None -> failwith "recorded trace has no chunk index"
  in
  let scaling_rows ~label ~shards (module M : Tool.S) =
    (* As [aprof replay -j] builds it: [jobs] shards over at most one
       domain per core. *)
    let pools =
      Array.init max_jobs (fun k -> Par.create ~jobs:(min (k + 1) cores) ())
    in
    let seconds = Array.make max_jobs [] in
    let events = Array.make max_jobs 0 in
    for _ = 1 to rounds do
      Array.iteri
        (fun k pool ->
          let t, (_, n, _) =
            Exp_common.time (fun () ->
                Tool.replay_parallel ~pool ~jobs:(k + 1) ~shards (module M))
          in
          seconds.(k) <- t :: seconds.(k);
          events.(k) <- n)
        pools
    done;
    let rate k p =
      Aprof_util.Stats.percentile p
        (List.map (fun t -> float_of_int events.(k) /. t /. 1e6) seconds.(k))
    in
    let base = rate 0 50. in
    Array.iteri
      (fun k pool ->
        let jobs = k + 1 in
        let mev = rate k 50. and q1 = rate k 25. and q3 = rate k 75. in
        let seconds = Aprof_util.Stats.percentile 50. seconds.(k) in
        let speedup = mev /. base in
        Format.fprintf ppf
          "  %-13s jobs=%d  %8d events  %.3fs  %6.2fM ev/s (q1-q3 %.2f-%.2f)%s@."
          label jobs events.(k) seconds mev q1 q3
          (if single_core then ""
           else Printf.sprintf "  speedup %.2fx" speedup);
        Exp_common.emit_row ~experiment:"parallel"
          ([
             ("tool", Exp_common.String label);
             ("jobs", Exp_common.Int jobs);
             ("cores", Exp_common.Int cores);
             ( "domains",
               (* Domains the pool actually runs on: at most one per
                  core, and the 4.14 backend has no Domain module and
                  executes every task on the caller. *)
               Exp_common.Int
                 (if Par.parallel_backend then Par.jobs pool else 1) );
             ("events", Exp_common.Int events.(k));
             ("rounds", Exp_common.Int rounds);
             ("seconds", Exp_common.Float seconds);
             ("mev_per_s", Exp_common.Float mev);
             ("mev_per_s_p25", Exp_common.Float q1);
             ("mev_per_s_p75", Exp_common.Float q3);
           ]
          @
          if single_core then []
          else [ ("speedup_vs_j1", Exp_common.Float speedup) ]))
      pools
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
     a shard reads whole chunks, and a v3 chunk decodes through the
     transform layer inside each shard's session — the row labels
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
