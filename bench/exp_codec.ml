(* Trace-pipeline benchmark: binary vs text codec throughput, and the
   memory story of streaming decode.

   Two PARSEC miniatures are each sized to the target event count, then
   encoded and decoded through both codecs: blackscholes, whose loops
   collapse into repeat regions, and canneal, a mutex-shuffled address
   mix with little repetition, where v3 encoding costs the most.  The
   figures of merit are events/second for encode and decode, the
   binary/text throughput ratio (the pipeline's raison d'etre), bytes
   per event, and the peak live heap during a streaming decode — which
   must track the I/O chunk size, not the trace length. *)

module Trace = Aprof_trace.Trace
module Stream = Aprof_trace.Trace_stream
module Codec = Aprof_trace.Trace_codec
module Stats = Exp_common.Stats

let mib bytes = float_of_int bytes /. (1024. *. 1024.)

let live_words () =
  let st = Gc.stat () in
  st.Gc.live_words

(* The same trace through every container version.  v1 is the raw
   record stream, v2 adds CRC framing and the shard index, v3 packs
   each chunk (tid runs, address deltas, repeat suppression) and
   optionally entropy-codes the payload — the "v3-raw" row isolates the
   packing gain from the Huffman pass. *)
let formats =
  [ ("v1", 1, false); ("v2", 2, false); ("v3", 3, true); ("v3-raw", 3, false) ]

let run_workload ~quick ppf workload =
  let target = if quick then 200_000 else 1_200_000 in
  (* Encoding is what this experiment times, so the trace stays live. *)
  let result = Exp_common.sized ~target workload in
  let trace = result.Aprof_vm.Interp.trace in
  let n_events = Trace.length trace in
  Format.fprintf ppf "@.workload: %s, %d events@." workload n_events;
  let routine_name =
    Aprof_trace.Routine_table.name result.Aprof_vm.Interp.routines
  in
  let tmp suffix = Filename.temp_file "aprof_codec" suffix in
  let text_file = tmp ".trace" in
  let files = List.map (fun (label, _, _) -> (label, tmp ".atrc")) formats in
  (* Cells, in pairs: encode a file (timed from the sink's creation to
     its close), then decode it back, counting events. *)
  let encode file make_sink time =
    Out_channel.with_open_bin file (fun oc ->
        time (fun () ->
            let sink = make_sink oc in
            Trace.replay trace sink.Stream.emit_batch;
            sink.Stream.close_batch ()))
  in
  let decode file read time =
    In_channel.with_open_bin file (fun ic ->
        time (fun () ->
            if read ic ignore <> n_events then
              failwith "codec bench: decoded event count mismatch"))
  in
  let read_binary ic f = snd (Codec.read ~on_corrupt:`Fail ic f) in
  let rounds = Exp_common.rounds ~quick in
  let samples =
    Exp_common.sample ~rounds
      (encode text_file Stream.text_sink
      :: decode text_file Stream.read_text
      :: List.concat_map
           (fun (label, format_version, entropy) ->
             let file = List.assoc label files in
             [
               encode file
                 (Codec.batch_writer ~format_version ~entropy ~routine_name);
               decode file read_binary;
             ])
           formats)
  in
  let pairs =
    let rec go = function
      | enc :: dec :: rest -> (enc, dec) :: go rest
      | _ -> []
    in
    go samples
  in
  let text_enc, text_dec = List.hd pairs in
  let per_format = List.combine formats (List.tl pairs) in
  let _, (bin_enc, bin_dec) =
    List.find (fun ((label, _, _), _) -> label = "v2") per_format
  in
  let file_size f =
    Int64.to_int (In_channel.with_open_bin f In_channel.length)
  in
  let text_bytes = file_size text_file in
  let bin_bytes = file_size (List.assoc "v2" files) in
  (* Streaming binary decode, untimed: sample live heap words to show
     the decode never holds the trace. *)
  let baseline_live = live_words () in
  let peak_live = ref 0 in
  let sample_every = max 1 (n_events / 8) in
  In_channel.with_open_bin (List.assoc "v2" files) (fun ic ->
      let count = ref 0 in
      ignore
        (read_binary ic (fun b ->
             let before = !count / sample_every in
             count := !count + Aprof_trace.Event.Batch.length b;
             if !count / sample_every > before then
               peak_live := max !peak_live (live_words ()))));
  let median s = (Exp_common.rate n_events s).Stats.median in
  let speedup a b = (Stats.ratio a b).Stats.median in
  Format.fprintf ppf "size: text %.1f MiB (%.1f B/event), binary %.1f MiB (%.1f B/event), ratio %.2fx@."
    (mib text_bytes)
    (float_of_int text_bytes /. float_of_int n_events)
    (mib bin_bytes)
    (float_of_int bin_bytes /. float_of_int n_events)
    (float_of_int text_bytes /. float_of_int bin_bytes);
  Format.fprintf ppf
    "encode: text %.1f Mev/s, binary %.1f Mev/s, speedup %.2fx@."
    (median text_enc) (median bin_enc) (speedup text_enc bin_enc);
  Format.fprintf ppf
    "decode: text %.1f Mev/s, binary %.1f Mev/s, speedup %.2fx@."
    (median text_dec) (median bin_dec) (speedup text_dec bin_dec);
  let sum a b = Array.map2 ( +. ) a b in
  Format.fprintf ppf "encode+decode: binary is %.2fx the text codec@."
    (speedup (sum text_enc text_dec) (sum bin_enc bin_dec));
  let extra_live = max 0 (!peak_live - baseline_live) in
  Format.fprintf ppf
    "streaming decode peak extra live: %d words (trace itself: ~%d words)@."
    extra_live (3 * n_events);
  (* The compression column is v2 bytes over this format's bytes, i.e.
     how many times smaller than the checksummed default the file is. *)
  Format.fprintf ppf "@.format versions (same %d-event trace):@." n_events;
  Format.fprintf ppf "  %-8s %12s %9s %8s %11s %11s@." "format" "bytes"
    "B/event" "vs v2" "enc Mev/s" "dec Mev/s";
  List.iter
    (fun ((label, format_version, entropy), (enc, dec)) ->
      let bytes = file_size (List.assoc label files) in
      let bpe = float_of_int bytes /. float_of_int n_events in
      let ratio = float_of_int bin_bytes /. float_of_int bytes in
      Format.fprintf ppf "  %-8s %12d %9.2f %7.2fx %11.1f %11.1f@." label bytes
        bpe ratio (median enc) (median dec);
      Exp_common.emit_row ~experiment:"codec" ~rounds
        ([
           ("workload", Exp_common.String workload);
           ("format", Exp_common.String label);
           ("format_version", Exp_common.Int format_version);
           ("entropy", Exp_common.Int (if entropy then 1 else 0));
           ("events", Exp_common.Int n_events);
           ("bytes", Exp_common.Int bytes);
           ("bytes_per_event", Exp_common.Float bpe);
           ("compression_vs_v2", Exp_common.Float ratio);
         ]
        @ Exp_common.metric "encode_mev_per_s" (Exp_common.rate n_events enc)
        @ Exp_common.metric "decode_mev_per_s" (Exp_common.rate n_events dec)))
    per_format;
  List.iter (fun (_, f) -> Sys.remove f) files;
  Sys.remove text_file

let run ~quick ppf =
  Exp_common.section ppf "codec: binary vs text trace pipeline";
  List.iter (run_workload ~quick ppf) [ "blackscholes"; "canneal" ]
