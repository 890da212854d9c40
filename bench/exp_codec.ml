(* Trace-pipeline benchmark: binary vs text codec throughput, and the
   memory story of streaming decode.

   A large PARSEC miniature is scaled until its trace crosses the target
   event count, then encoded and decoded through both codecs.  The
   figures of merit are events/second for encode and decode, the
   binary/text throughput ratio (the pipeline's raison d'etre), bytes
   per event, and the peak live heap during a streaming decode — which
   must track the I/O chunk size, not the trace length. *)

module Workload = Aprof_workloads.Workload
module Registry = Aprof_workloads.Registry
module Trace = Aprof_trace.Trace
module Stream = Aprof_trace.Trace_stream
module Codec = Aprof_trace.Trace_codec

let time f =
  let t0 = Sys.time () in
  let r = f () in
  (Sys.time () -. t0, r)

let mib bytes = float_of_int bytes /. (1024. *. 1024.)

let live_words () =
  let st = Gc.stat () in
  st.Gc.live_words

let run ~quick ppf =
  Exp_common.section ppf "codec: binary vs text trace pipeline";
  let target = if quick then 200_000 else 1_200_000 in
  let spec =
    match Registry.find "blackscholes" with
    | Some s -> s
    | None -> failwith "blackscholes workload missing"
  in
  (* Scale the workload until the trace is big enough. *)
  let rec grow scale =
    let result = Workload.run_spec spec ~threads:4 ~scale ~seed:42 in
    let n = Aprof_trace.Trace.length result.Aprof_vm.Interp.trace in
    if n >= target || scale > 8_000_000 then (result, scale)
    else grow (scale * 2)
  in
  let result, scale = grow (target / 8) in
  let trace = result.Aprof_vm.Interp.trace in
  let routines = result.Aprof_vm.Interp.routines in
  let n_events = Trace.length trace in
  Format.fprintf ppf "workload: %s, scale %d -> %d events@." "blackscholes"
    scale n_events;
  let routine_name = Aprof_trace.Routine_table.name routines in
  let tmp suffix = Filename.temp_file "aprof_codec" suffix in
  let text_file = tmp ".trace" and bin_file = tmp ".atrc" in
  (* --- encode --- *)
  let text_enc_s, () =
    time (fun () ->
        Out_channel.with_open_bin text_file (fun oc -> Trace.save oc trace))
  in
  let bin_enc_s, () =
    time (fun () ->
        Out_channel.with_open_bin bin_file (fun oc ->
            let sink = Codec.batch_writer ~routine_name oc in
            Trace.replay trace sink.Stream.emit_batch;
            sink.Stream.close_batch ()))
  in
  let file_size f =
    Int64.to_int (In_channel.with_open_bin f In_channel.length)
  in
  let text_bytes = file_size text_file in
  let bin_bytes = file_size bin_file in
  (* --- decode --- *)
  let text_dec_s, text_n =
    time (fun () ->
        In_channel.with_open_bin text_file (fun ic ->
            match Trace.load ic with
            | Ok t -> Trace.length t
            | Error e -> failwith e))
  in
  (* Streaming binary decode: count events, sampling live heap words to
     show the decode never holds the trace. *)
  let baseline_live = live_words () in
  let peak_live = ref 0 in
  let sample_every = max 1 (n_events / 8) in
  let bin_dec_s, bin_n =
    time (fun () ->
        In_channel.with_open_bin bin_file (fun ic ->
            let _names, batches = Codec.batch_reader ic in
            let count = ref 0 in
            ignore
              (Stream.drain batches (fun b ->
                   let before = !count / sample_every in
                   count := !count + Aprof_trace.Event.Batch.length b;
                   if !count / sample_every > before then
                     peak_live := max !peak_live (live_words ())));
            !count))
  in
  if text_n <> n_events || bin_n <> n_events then
    failwith "codec bench: decoded event count mismatch";
  let rate n s = float_of_int n /. Float.max s 1e-9 /. 1e6 in
  Format.fprintf ppf "size: text %.1f MiB (%.1f B/event), binary %.1f MiB (%.1f B/event), ratio %.2fx@."
    (mib text_bytes)
    (float_of_int text_bytes /. float_of_int n_events)
    (mib bin_bytes)
    (float_of_int bin_bytes /. float_of_int n_events)
    (float_of_int text_bytes /. float_of_int bin_bytes);
  Format.fprintf ppf "encode: text %.2fs (%.1f Mev/s), binary %.2fs (%.1f Mev/s), speedup %.2fx@."
    text_enc_s (rate n_events text_enc_s) bin_enc_s (rate n_events bin_enc_s)
    (text_enc_s /. Float.max bin_enc_s 1e-9);
  Format.fprintf ppf "decode: text %.2fs (%.1f Mev/s), binary %.2fs (%.1f Mev/s), speedup %.2fx@."
    text_dec_s (rate n_events text_dec_s) bin_dec_s (rate n_events bin_dec_s)
    (text_dec_s /. Float.max bin_dec_s 1e-9);
  let total_speedup =
    (text_enc_s +. text_dec_s) /. Float.max (bin_enc_s +. bin_dec_s) 1e-9
  in
  Format.fprintf ppf "encode+decode: binary is %.2fx the text codec@."
    total_speedup;
  let extra_live = max 0 (!peak_live - baseline_live) in
  Format.fprintf ppf
    "streaming decode peak extra live: %d words (trace itself: ~%d words)@."
    extra_live (3 * n_events);
  (* --- format versions: v1 / v2 / v3 --------------------------------

     The same trace through every container version.  v1 is the raw
     record stream, v2 adds CRC framing and the shard index, v3 packs
     each chunk (tid runs, address deltas, dictionary-coded patterns,
     repeat suppression) and optionally entropy-codes the payload — the
     "v3-raw" row isolates the packing gain from the Huffman pass.  The
     compression column is v2 bytes over this format's bytes, i.e. how
     many times smaller than the checksummed default the file is. *)
  Format.fprintf ppf "@.format versions (same %d-event trace):@." n_events;
  Format.fprintf ppf "  %-8s %12s %9s %8s %11s %11s@." "format" "bytes"
    "B/event" "vs v2" "enc Mev/s" "dec Mev/s";
  (* Regenerate the trace (deterministic per seed) instead of holding
     the first section's vector live across its sampled decode: the
     live-words samples up there walk the whole heap, and keeping tens
     of megabytes of trace reachable would bill that walk to the binary
     decode being measured. *)
  let result = Workload.run_spec spec ~threads:4 ~scale ~seed:42 in
  let trace = result.Aprof_vm.Interp.trace in
  let routine_name =
    Aprof_trace.Routine_table.name result.Aprof_vm.Interp.routines
  in
  (* The v2 baseline for the ratio column: the binary file from the
     first section is the default (v2) encoding of the same trace. *)
  let v2_bytes = ref bin_bytes in
  List.iter
    (fun (label, format_version, entropy) ->
      let file = tmp ".atrc" in
      let enc_s, () =
        time (fun () ->
            Out_channel.with_open_bin file (fun oc ->
                let sink =
                  Codec.batch_writer ~format_version ~entropy ~routine_name oc
                in
                Trace.replay trace sink.Stream.emit_batch;
                sink.Stream.close_batch ();
                if Trace.length trace <> n_events then
                  failwith "codec bench: format encode count mismatch"))
      in
      let bytes = file_size file in
      if label = "v2" then v2_bytes := bytes;
      let dec_s, dec_n =
        time (fun () ->
            In_channel.with_open_bin file (fun ic ->
                let _names, batches = Codec.batch_reader ic in
                Stream.drain batches ignore))
      in
      if dec_n <> n_events then
        failwith "codec bench: format decode count mismatch";
      let bpe = float_of_int bytes /. float_of_int n_events in
      let ratio = float_of_int !v2_bytes /. float_of_int bytes in
      Format.fprintf ppf "  %-8s %12d %9.2f %7.2fx %11.1f %11.1f@." label bytes
        bpe ratio (rate n_events enc_s) (rate n_events dec_s);
      Exp_common.emit_row ~experiment:"codec"
        [
          ("format", Exp_common.String label);
          ("format_version", Exp_common.Int format_version);
          ("entropy", Exp_common.Int (if entropy then 1 else 0));
          ("events", Exp_common.Int n_events);
          ("bytes", Exp_common.Int bytes);
          ("bytes_per_event", Exp_common.Float bpe);
          ("compression_vs_v2", Exp_common.Float ratio);
          ("encode_mev_per_s", Exp_common.Float (rate n_events enc_s));
          ("decode_mev_per_s", Exp_common.Float (rate n_events dec_s));
        ];
      Sys.remove file)
    [
      ("v1", 1, false);
      ("v2", 2, false);
      ("v3", 3, true);
      ("v3-raw", 3, false);
    ];
  Sys.remove text_file;
  Sys.remove bin_file
