(* Ingest daemon throughput: aggregate events/second of `aprof serve`
   under many concurrent push clients, against the single-file
   sequential replay rate of the same trace.

   A mysqlslap trace is recorded once (binary v2, sized to the target —
   the daemon's motivating workload: a fleet of database clients each
   streaming its own trace).  The baseline replays it sequentially
   through the drms profiler.  Then an in-process server is started on
   a temp Unix socket and N client threads connect and stream the file
   concurrently; the fleet window is closed when every connection has
   drained and folded, so the rate is end-to-end ingest (decode +
   profile + fold), not just socket drain.  The baseline and every
   fleet size are cells of one sampler run, so each round runs all of
   them.

   [ratio_vs_replay] compares aggregate ingest against the sequential
   baseline, per round.  The CI serve gate (4 vCPU) asserts ratio >= 1.0 at >= 8
   clients: concurrent ingest across the worker pool must at least
   match single-file replay.  On a single-core host the ratio mostly
   reflects scheduling overhead — [cores] is recorded on every row so a
   flat number is attributable.  [peak_heap_words] (GC top-of-heap) is
   recorded per row.  The trace is streamed to its file, never
   materialized, so the replay row's peak is replay's own.  What bounds
   the serve rows is the daemon's per-connection bound: each connection
   queues at most [inbox_bytes] of read slices (a reader waits for room
   under the daemon's one lock) and holds one profiler while its trace
   is open, so the peak per client must not grow with the client count. *)

module Server = Aprof_serve.Server

(* One push client: stream the whole file over a fresh connection,
   [repeat] traces back-to-back, then close and wait for the server's
   EOF so the connection is fully drained when this returns. *)
let push_client ~sock ~bytes ~repeat () =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let n = Bytes.length bytes in
  for _ = 1 to repeat do
    let rec write o =
      if o < n then
        match Unix.write fd bytes o (n - o) with
        | 0 -> failwith "push: socket closed"
        | k -> write (o + k)
    in
    write 0
  done;
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let b = Bytes.create 1 in
  (try while Unix.read fd b 0 1 > 0 do () done with Unix.Unix_error _ -> ());
  Unix.close fd

let run ~quick ppf =
  Exp_common.section ppf "serve: concurrent ingest daemon throughput";
  (* Trace length grows about quadratically in scale for this workload;
     the sizing rule fits that. *)
  let target = if quick then 100_000 else 2_000_000 in
  let cores = Exp_common.cores in
  let paths, trace_events = Exp_common.record ~target "mysqlslap" [ (2, false) ] in
  let path = List.hd paths in
  let bytes =
    In_channel.with_open_bin path (fun ic ->
        Bytes.unsafe_of_string (In_channel.input_all ic))
  in
  Format.fprintf ppf "trace: %d events, %d bytes, %d cores available@."
    trace_events (Bytes.length bytes) cores;
  let jobs = max 1 (min 8 cores) in
  (* Baseline: sequential single-file replay through the same profiler. *)
  let replay time =
    time (fun () ->
        let r =
          Aprof_tools.Replay_driver.replay ~jobs:1
            ~profiler:(module Aprof_tools.Aprof_adapters.Drms)
            ~with_tools:false ~keep_going:false ~now:Unix.gettimeofday [ path ]
        in
        if r.Aprof_tools.Replay_driver.failed then failwith "baseline replay failed")
  in
  (* One fleet window: a fresh in-process server on a temp Unix socket,
     [clients] threads each streaming the file [repeat] times.  The
     window closes when every client saw the server's EOF, so every
     stream is fully folded: the rate is end-to-end ingest. *)
  let serve ~clients ~repeat time =
    let sock = Filename.temp_file "aprof_serve" ".sock" in
    Sys.remove sock;
    let srv =
      Server.start { Server.default_config with unix_path = Some sock; jobs }
    in
    time (fun () ->
        List.init clients (fun _ ->
            Thread.create (push_client ~sock ~bytes ~repeat) ())
        |> List.iter Thread.join);
    let s = Server.stats srv in
    Server.stop srv;
    if s.Server.s_traces <> clients * repeat
       || s.Server.s_events <> clients * repeat * trace_events
    then
      failwith
        (Printf.sprintf "serve: folded %d traces (%d events), expected %d"
           s.Server.s_traces s.Server.s_events (clients * repeat))
  in
  (* The fleet sizes: hundreds of concurrent clients in the full run —
     each client is a blocking-IO systhread, which is exactly the
     mysqlslap shape (many mostly-idle connections).  Cells run in
     ascending client order: (mode, clients, jobs, events, cell). *)
  let cells =
    ("replay-j1", 0, 1, trace_events, replay)
    :: List.map
         (fun (clients, repeat) ->
           ( "serve",
             clients,
             jobs,
             clients * repeat * trace_events,
             serve ~clients ~repeat ))
         (if quick then [ (8, 1) ] else [ (8, 2); (128, 1); (512, 1) ])
  in
  (* [peak_heap_words] is [Gc.top_heap_words], which never falls within
     a process: it is read once, after a cell's first call, and the
     cells run in ascending client order, so each reading belongs to its
     own row. *)
  let peaks = List.map (fun _ -> ref 0) cells in
  (* Five rounds in a full run, not [Exp_common.rounds]: one round
     pushes 656 copies of the trace, about 1.6 G events and 50 s on two
     cores, so a run takes about 4 minutes. *)
  let rounds = if quick then Exp_common.rounds ~quick else 5 in
  let samples =
    Exp_common.sample ~rounds
      (List.map2
         (fun (_, _, _, _, cell) peak time ->
           cell time;
           if !peak = 0 then peak := (Gc.stat ()).Gc.top_heap_words)
         cells peaks)
  in
  (* Ingest over replay rate, per round. *)
  let per_s n = Array.map (fun s -> float_of_int n /. s) in
  let replay_per_s = per_s trace_events (List.hd samples) in
  List.iter2
    (fun ((mode, clients, jobs, events, _), peak) seconds ->
      let mev = Exp_common.rate events seconds in
      let ratio = Exp_common.Stats.ratio (per_s events seconds) replay_per_s in
      Format.fprintf ppf
        "  %-18s %9d events  %6.2fM ev/s (q1-q3 %.2f-%.2f)  ratio %.2fx  peak %dw@."
        (if clients = 0 then mode
         else Printf.sprintf "serve c=%d j=%d" clients jobs)
        events mev.median mev.p25 mev.p75 ratio.median !peak;
      Exp_common.emit_row ~experiment:"serve" ~rounds
        ([
           ("mode", Exp_common.String mode);
           ("clients", Exp_common.Int clients);
           ("jobs", Exp_common.Int jobs);
           ("events", Exp_common.Int events);
         ]
        @ Exp_common.metric "mev_per_s" mev
        @ Exp_common.metric "ratio_vs_replay" ratio
        @ [ ("peak_heap_words", Exp_common.Int !peak) ]))
    (List.combine cells peaks) samples;
  Sys.remove path
