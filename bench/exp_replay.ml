(* Replay-path benchmark: the packed batch path, per tool.

   A PARSEC miniature is scaled until its trace crosses the target event
   count, recorded to a binary trace file, then replayed into every
   standard tool from that file through the one event path (decode ->
   Event.Batch -> on_batch).  The figures of merit are events/second and
   minor-words/event: a tool that dispatches on the raw fields should
   allocate close to nothing per event. *)

module Workload = Aprof_workloads.Workload
module Registry = Aprof_workloads.Registry
module Stream = Aprof_trace.Trace_stream
module Codec = Aprof_trace.Trace_codec
module Tool = Aprof_tools.Tool
module Harness = Aprof_tools.Harness

let run ~quick ppf =
  Exp_common.section ppf "replay: batched hot path";
  let target = if quick then 150_000 else 2_400_000 in
  let spec =
    match Registry.find "blackscholes" with
    | Some s -> s
    | None -> failwith "blackscholes workload missing"
  in
  let rec grow scale =
    let result = Workload.run_spec spec ~threads:4 ~scale ~seed:42 in
    let n = Aprof_trace.Trace.length result.Aprof_vm.Interp.trace in
    if n >= target || scale > 8_000_000 then (result, scale)
    else grow (scale * 2)
  in
  let result, scale = grow (target / 8) in
  let trace = result.Aprof_vm.Interp.trace in
  let routines = result.Aprof_vm.Interp.routines in
  let n_events = Aprof_trace.Trace.length trace in
  let cores = Aprof_util.Par.available_parallelism () in
  Format.fprintf ppf "workload: %s, scale %d -> %d events@." "blackscholes"
    scale n_events;
  let routine_name = Aprof_trace.Routine_table.name routines in
  let bin_file = Filename.temp_file "aprof_replay" ".atrc" in
  Out_channel.with_open_bin bin_file (fun oc ->
      let sink = Codec.batch_writer ~routine_name oc in
      Aprof_trace.Trace.replay trace sink.Stream.emit_batch;
      sink.Stream.close_batch ());
  (* One throwaway decode so the file is in the page cache before the
     first timed run. *)
  In_channel.with_open_bin bin_file (fun ic ->
      let st = Aprof_tools.Nulgrind.create () in
      let _names, batches = Codec.batch_reader ic in
      ignore (Stream.drain batches (Aprof_tools.Nulgrind.on_batch st)));
  let measure_once (module M : Tool.S) =
    let st = M.create () in
    (* Start every run from the same heap shape, or the garbage of one
       measurement is collected on a later one's clock. *)
    Gc.compact ();
    In_channel.with_open_bin bin_file (fun ic ->
        let m0 = Gc.minor_words () in
        let seconds, n =
          Exp_common.time (fun () ->
              let _names, batches = Codec.batch_reader ic in
              Stream.drain batches (M.on_batch st))
        in
        if n <> n_events then failwith "replay bench: replay count mismatch";
        let words = Gc.minor_words () -. m0 in
        (seconds, words /. float_of_int n_events))
  in
  (* Runs are tens of milliseconds, so a stray timer tick or collection
     skews a single sample: keep the fastest of several.  Contention
     noise does not shrink with run length, so each tool gets a fixed
     time budget of extra reps — fast tools (where a few ms of noise
     moves the rate most) collect many samples, slow ones stop early. *)
  let budget = 1.5 in
  let max_reps = 8 in
  let measure_best tool =
    let best = ref (measure_once tool) in
    let spent = ref (fst !best) in
    let reps = ref 0 in
    while (not quick) && !spent < budget && !reps < max_reps do
      incr reps;
      let (s, _) as r = measure_once tool in
      if s < fst !best then best := r;
      spent := !spent +. s
    done;
    !best
  in
  let rate s = float_of_int n_events /. Float.max s 1e-9 /. 1e6 in
  Format.fprintf ppf "  %-12s %12s %12s@." "" "Mev/s" "w/ev";
  List.iter
    (fun (module M : Tool.S) ->
      let b_s, b_w = measure_best (module M : Tool.S) in
      Format.fprintf ppf "  %-12s %12.1f %12.2f@." M.name (rate b_s) b_w;
      Exp_common.emit_row ~experiment:"replay"
        [
          ("tool", Exp_common.String M.name);
          ("events", Exp_common.Int n_events);
          ("cores", Exp_common.Int cores);
          ("batch_seconds", Exp_common.Float b_s);
          ("batch_mev_per_s", Exp_common.Float (rate b_s));
          ("batch_minor_words_per_event", Exp_common.Float b_w);
        ])
    (List.filter
       (fun (module M : Tool.S) -> Exp_common.keep_tool M.name)
       Harness.tools);
  (* --- trace-format sweep: batch replay per container version --------

     The same trace replayed off a v2 and a v3 file through the batch
     hot path.  v3 must not lose throughput: its chunks are an order of
     magnitude smaller and the repeat decoder replays memoized template
     rows instead of re-parsing varints, so the bytes saved must show
     up as events per second, not just disk.  The entropy-coded variant
     is included to price the archival option. *)
  Format.fprintf ppf "@.trace formats (batch replay):@.";
  Format.fprintf ppf "  %-12s %-8s %12s %12s@." "tool" "format" "bytes"
    "Mev/s";
  (* Regenerate the trace (deterministic per seed) rather than holding
     the vector live across the per-tool measurements above: a live
     multi-megaword trace would be marked by every major slice landing
     inside a timed replay. *)
  let result = Workload.run_spec spec ~threads:4 ~scale ~seed:42 in
  let trace = result.Aprof_vm.Interp.trace in
  let routine_name =
    Aprof_trace.Routine_table.name result.Aprof_vm.Interp.routines
  in
  let formats = [ ("v2", 2, false); ("v3", 3, false); ("v3+ent", 3, true) ] in
  let files =
    List.map
      (fun (label, format_version, entropy) ->
        let file = Filename.temp_file "aprof_replay_fmt" ".atrc" in
        Out_channel.with_open_bin file (fun oc ->
            let sink =
              Codec.batch_writer ~format_version ~entropy ~routine_name oc
            in
            Aprof_trace.Trace.replay trace sink.Stream.emit_batch;
            sink.Stream.close_batch ());
        (label, file))
      formats
  in
  let replay_file (module M : Tool.S) file =
    let st = M.create () in
    Gc.compact ();
    In_channel.with_open_bin file (fun ic ->
        let seconds, n =
          Exp_common.time (fun () ->
              let _names, batches = Codec.batch_reader ic in
              Stream.drain batches (M.on_batch st))
        in
        if n <> n_events then failwith "replay bench: format replay mismatch";
        seconds)
  in
  List.iter
    (fun tool_name ->
      match
        List.find_opt
          (fun (module M : Tool.S) -> M.name = tool_name)
          Harness.tools
      with
      | Some tool when Exp_common.keep_tool tool_name ->
        List.iter
          (fun (label, file) ->
            let best = ref (replay_file tool file) in
            let reps = if quick then 1 else 5 in
            for _ = 2 to reps do
              let s = replay_file tool file in
              if s < !best then best := s
            done;
            let bytes =
              Int64.to_int (In_channel.with_open_bin file In_channel.length)
            in
            Format.fprintf ppf "  %-12s %-8s %12d %12.1f@." tool_name label
              bytes (rate !best);
            Exp_common.emit_row ~experiment:"replay"
              [
                ("tool", Exp_common.String tool_name);
                ("format", Exp_common.String label);
                ("events", Exp_common.Int n_events);
                ("cores", Exp_common.Int cores);
                ("bytes", Exp_common.Int bytes);
                ("batch_seconds", Exp_common.Float !best);
                ("batch_mev_per_s", Exp_common.Float (rate !best));
              ])
          files
      | _ -> ())
    [ "nulgrind"; "aprof-drms" ];
  List.iter (fun (_, file) -> Sys.remove file) files;
  Sys.remove bin_file
