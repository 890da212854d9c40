(* Parallel replay scaling: aggregate events/second of the sharded
   replay engine at 1..4 shards, per shardable tool.

   A canneal trace is recorded once as v2 and v3 (with the shard
   index) — canneal because its event mix exercises what the profilers
   actually do (9% calls, so activations and ancestor searches are real
   work, unlike e.g. blackscholes whose trace has no calls at all and
   degenerates into a pure decode benchmark) — then each shardable tool
   replays the v2 file through [Tool.replay_parallel] at every job
   count, and aprof-drms the v3 file too; each shard is one task
   reading its chunks through its own seekable session.  Every (tool,
   job count) is one cell of the sampler, so each round replays once
   at every job count of every tool; [speedup_vs_j1] is the median of
   the per-round ratios to the tool's [-j 1] cell.  [events] counts
   each trace event once (broadcast copies excluded), so the column is
   comparable across tools and job counts.  Every row records the
   host's core count and the number of domains actually backing the
   pool: on a single-core machine [domains] exposes why the curve is
   flat — the speedup column is only meaningful when [cores] and
   [domains] both reach the job count (the CI gate checks exactly
   that). *)

module Tool = Aprof_tools.Tool
module Harness = Aprof_tools.Harness
module Par = Aprof_util.Par

let max_jobs = 4

let run ~quick ppf =
  Exp_common.section ppf "parallel: sharded replay scaling";
  (* Sharding efficiency is size-sensitive (the foreign write-timestamp
     working set grows with the trace), so the gate should measure the
     regime it names. *)
  let target = if quick then 150_000 else 3_000_000 in
  let paths, n_events =
    Exp_common.record ~target "canneal" [ (2, false); (3, false) ]
  in
  let cores = Exp_common.cores in
  Format.fprintf ppf "trace: %d events, %d cores available@." n_events cores;
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
  let shards path =
    match Tool.Shards.of_file path with
    | Some shards -> shards
    | None -> failwith "recorded trace has no chunk index"
  in
  let v2 = shards (List.nth paths 0) and v3 = shards (List.nth paths 1) in
  (* Every tool that shards within a trace; helgrind ([Global]) would
     only replay in order at every job count.  The v3 rows carry a
     "-v3" suffix so per-format curves stay distinguishable. *)
  let curves =
    List.filter_map
      (fun (module M : Tool.S) ->
        match M.sharding with
        | Tool.Global -> None
        | Tool.By_chunk _ | Tool.By_thread _ ->
          Some (M.name, v2, (module M : Tool.S)))
      Harness.tools
    @ [
        ( Aprof_tools.Aprof_adapters.Drms.name ^ "-v3",
          v3,
          (module Aprof_tools.Aprof_adapters.Drms : Tool.S) );
      ]
  in
  (* As [aprof replay -j] builds it: [jobs] shards over at most one
     domain per core. *)
  let pools =
    Array.init max_jobs (fun k -> Par.create ~jobs:(min (k + 1) cores) ())
  in
  let events = Hashtbl.create 32 in
  let cells =
    List.concat_map
      (fun (label, shards, (module M : Tool.S)) ->
        List.init max_jobs (fun k time ->
            time (fun () ->
                let _, n, _ =
                  Tool.replay_parallel ~pool:pools.(k) ~jobs:(k + 1) ~shards
                    (module M)
                in
                Hashtbl.replace events (label, k) n)))
      curves
  in
  let rounds = Exp_common.rounds ~quick in
  let samples = Array.of_list (Exp_common.sample ~rounds cells) in
  List.iteri
    (fun c (label, _, _) ->
      let j1 = samples.(c * max_jobs) in
      Array.iteri
        (fun k pool ->
          let jobs = k + 1 in
          let seconds = samples.((c * max_jobs) + k) in
          let events = Hashtbl.find events (label, k) in
          let mev = Exp_common.rate events seconds in
          (* The -j 1 cell's seconds over this cell's, per round. *)
          let speedup = Exp_common.Stats.ratio j1 seconds in
          Format.fprintf ppf
            "  %-13s jobs=%d  %8d events  %6.2fM ev/s (q1-q3 %.2f-%.2f)%s@."
            label jobs events mev.median mev.p25 mev.p75
            (if single_core then ""
             else Printf.sprintf "  speedup %.2fx" speedup.median);
          Exp_common.emit_row ~experiment:"parallel" ~rounds
            ([
               ("tool", Exp_common.String label);
               ("jobs", Exp_common.Int jobs);
               (* Domains the pool actually runs on: at most one per
                  core. *)
               ("domains", Exp_common.Int (Par.jobs pool));
               ("events", Exp_common.Int events);
             ]
            @ Exp_common.metric "mev_per_s" mev
            @
            if single_core then []
            else Exp_common.metric "speedup_vs_j1" speedup))
        pools)
    curves;
  List.iter Sys.remove paths
