(* Ingest daemon throughput: aggregate events/second of `aprof serve`
   under many concurrent push clients, against the single-file
   sequential replay rate of the same trace.

   A mysqlslap trace is recorded once (binary v2, probe-pinned scale —
   the daemon's motivating workload: a fleet of database clients each
   streaming its own trace).  The baseline replays it sequentially
   through the drms profiler.  Then an in-process server is started on
   a temp Unix socket and N client threads connect and stream the file
   concurrently; the fleet window is closed when every connection has
   drained and folded, so the rate is end-to-end ingest (decode +
   profile + fold), not just socket drain.

   [ratio_vs_replay] compares aggregate ingest against the sequential
   baseline.  The CI serve gate (4 vCPU) asserts ratio >= 1.0 at >= 8
   clients: concurrent ingest across the worker pool must at least
   match single-file replay.  On a single-core host the ratio mostly
   reflects scheduling overhead — [cores] is recorded on every row so a
   flat number is attributable.  [peak_heap_words] (GC top-of-heap) is
   recorded per row: with bounded inboxes it must not scale with the
   client count. *)

module Registry = Aprof_workloads.Registry
module Workload = Aprof_workloads.Workload
module Stream = Aprof_trace.Trace_stream
module Codec = Aprof_trace.Trace_codec
module Server = Aprof_serve.Server
module Par = Aprof_util.Par
module Vec = Aprof_util.Vec

let now () = Unix.gettimeofday ()

let record_trace ~target path =
  let spec =
    match Registry.find "mysqlslap" with
    | Some s -> s
    | None -> failwith "mysqlslap workload missing"
  in
  (* Probe-pin the scale so the gate measures the regime it names.
     Trace length grows superlinearly in scale for this workload, so a
     single linear probe can overshoot by an order of magnitude; ramp
     the scale geometrically instead, with one power-law refinement if
     the crossing run lands more than 2x past the target. *)
  let run scale = Workload.run_spec spec ~threads:4 ~scale ~seed:42 in
  let events r = Aprof_trace.Trace.length r.Aprof_vm.Interp.trace in
  let rec ramp prev scale =
    let r = run scale in
    let e = events r in
    if e < target / 2 then ramp (Some (scale, e)) (scale * 2)
    else if e <= target * 2 then r
    else
      match prev with
      | Some (s0, e0) when e > e0 && scale > s0 ->
        let p =
          log (float_of_int e /. float_of_int e0)
          /. log (float_of_int scale /. float_of_int s0)
        in
        let p = Float.max 0.5 (Float.min 3.0 p) in
        let s' =
          int_of_float
            (float_of_int scale
            *. ((float_of_int target /. float_of_int e) ** (1. /. p)))
        in
        run (max 50 s')
      | _ -> r
  in
  let result = ramp None 400 in
  let routines = result.Aprof_vm.Interp.routines in
  Out_channel.with_open_bin path (fun oc ->
      let sink =
        Codec.batch_writer
          ~routine_name:(Aprof_trace.Routine_table.name routines)
          oc
      in
      Aprof_trace.Trace.replay result.Aprof_vm.Interp.trace sink.Stream.emit_batch;
      sink.Stream.close_batch ());
  Aprof_trace.Trace.length result.Aprof_vm.Interp.trace

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
  let target = if quick then 100_000 else 2_000_000 in
  let cores = Par.available_parallelism () in
  let path = Filename.temp_file "aprof_serve" ".atrc" in
  let trace_events = record_trace ~target path in
  let bytes =
    In_channel.with_open_bin path (fun ic ->
        Bytes.unsafe_of_string (In_channel.input_all ic))
  in
  Format.fprintf ppf "trace: %d events, %d bytes, %d cores available@."
    trace_events (Bytes.length bytes) cores;
  (* Baseline: sequential single-file replay through the same profiler. *)
  let baseline =
    let r =
      Aprof_tools.Replay_driver.replay ~jobs:1
        ~profiler:(module Aprof_tools.Aprof_adapters.Drms)
        ~with_tools:false ~keep_going:false ~now [ path ]
    in
    if r.Aprof_tools.Replay_driver.failed then failwith "baseline replay failed";
    let events = r.Aprof_tools.Replay_driver.events in
    let seconds = r.Aprof_tools.Replay_driver.seconds in
    let mev = float_of_int events /. seconds /. 1e6 in
    Format.fprintf ppf "  %-18s %9d events  %.3fs  %6.2fM ev/s@." "replay-j1"
      events seconds mev;
    Exp_common.emit_row ~experiment:"serve"
      [
        ("mode", Exp_common.String "replay-j1");
        ("clients", Exp_common.Int 0);
        ("jobs", Exp_common.Int 1);
        ("cores", Exp_common.Int cores);
        ("events", Exp_common.Int events);
        ("seconds", Exp_common.Float seconds);
        ("mev_per_s", Exp_common.Float mev);
        ("ratio_vs_replay", Exp_common.Float 1.);
        ( "peak_heap_words",
          Exp_common.Int (Gc.stat ()).Gc.top_heap_words );
      ];
    mev
  in
  let serve_round ~clients ~repeat =
    let sock = Filename.temp_file "aprof_serve" ".sock" in
    Sys.remove sock;
    let jobs = max 1 (min 8 cores) in
    let srv =
      Server.start { Server.default_config with unix_path = Some sock; jobs }
    in
    let t0 = now () in
    let threads =
      List.init clients (fun _ ->
          Thread.create (push_client ~sock ~bytes ~repeat) ())
    in
    List.iter Thread.join threads;
    (* Joined clients saw the server's EOF, so every stream is fully
       folded: the window closes here. *)
    let seconds = now () -. t0 in
    let s = Server.stats srv in
    Server.stop srv;
    let expected = clients * repeat in
    if s.Server.s_traces <> expected then
      failwith
        (Printf.sprintf "serve: folded %d traces, expected %d"
           s.Server.s_traces expected);
    let events = s.Server.s_events in
    let mev = float_of_int events /. seconds /. 1e6 in
    let ratio = mev /. baseline in
    let peak = (Gc.stat ()).Gc.top_heap_words in
    Format.fprintf ppf
      "  %-18s %9d events  %.3fs  %6.2fM ev/s  ratio %.2fx  peak %dw@."
      (Printf.sprintf "serve c=%d j=%d" clients jobs)
      events seconds mev ratio peak;
    Exp_common.emit_row ~experiment:"serve"
      [
        ("mode", Exp_common.String "serve");
        ("clients", Exp_common.Int clients);
        ("jobs", Exp_common.Int jobs);
        ("cores", Exp_common.Int cores);
        ("events", Exp_common.Int events);
        ("seconds", Exp_common.Float seconds);
        ("mev_per_s", Exp_common.Float mev);
        ("ratio_vs_replay", Exp_common.Float ratio);
        ("peak_heap_words", Exp_common.Int peak);
      ]
  in
  (* The fleet sizes: hundreds of concurrent clients in the full run —
     each client is a blocking-IO systhread, which is exactly the
     mysqlslap shape (many mostly-idle connections). *)
  let rounds = if quick then [ (8, 1) ] else [ (8, 2); (128, 1); (512, 1) ] in
  List.iter (fun (clients, repeat) -> serve_round ~clients ~repeat) rounds;
  Sys.remove path
