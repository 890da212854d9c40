(* Fault-injection sweep over a recorded trace.

   Where test/fault_inject.ml exhaustively mutates a small synthetic
   trace, this experiment throws randomized faults at a real recorded
   blackscholes trace at full chunk size and measures the outcome
   distribution — every fault must land in the trichotomy (identical
   decode / clean decode error / salvage with advertised drops), and a
   wrong decode is a hard failure — plus what integrity costs: v2
   (checksummed) decode throughput against v1, and salvage throughput
   on damaged inputs. *)

module Workload = Aprof_workloads.Workload
module Registry = Aprof_workloads.Registry
module Stream = Aprof_trace.Trace_stream
module Codec = Aprof_trace.Trace_codec
module Crc32c = Aprof_util.Crc32c
module Rng = Aprof_util.Rng

(* Events are compared by count plus a running checksum of their text
   rendering — materializing a million event strings per fault would
   dominate the sweep. *)
let stream_digest src =
  let crc = ref 0 in
  let count =
    Stream.drain src
      (Aprof_trace.Event.Batch.iter_events (fun ev ->
           let line = Aprof_trace.Event.to_line ev in
           crc :=
             Crc32c.digest_string ~crc:!crc line ~pos:0
               ~len:(String.length line)))
  in
  (count, !crc)

let record trace routines ~format_version file =
  Out_channel.with_open_bin file (fun oc ->
      let sink =
        Codec.batch_writer ~format_version
          ~routine_name:(Aprof_trace.Routine_table.name routines)
          oc
      in
      Aprof_trace.Trace.replay trace sink.Stream.emit_batch;
      sink.Stream.close_batch ())

let run ~quick ppf =
  Exp_common.section ppf "faults: injection and salvage on a recorded trace";
  let target = if quick then 100_000 else 600_000 in
  let spec =
    match Registry.find "blackscholes" with
    | Some s -> s
    | None -> failwith "blackscholes workload missing"
  in
  let rec grow scale =
    let result = Workload.run_spec spec ~threads:4 ~scale ~seed:42 in
    if Aprof_trace.Trace.length result.Aprof_vm.Interp.trace >= target || scale > 8_000_000
    then result
    else grow (scale * 2)
  in
  let result = grow (target / 8) in
  let trace = result.Aprof_vm.Interp.trace in
  let routines = result.Aprof_vm.Interp.routines in
  let v2_file = Filename.temp_file "aprof_faults" ".atrc" in
  let v1_file = Filename.temp_file "aprof_faults_v1" ".atrc" in
  let mutant = Filename.temp_file "aprof_faults_mut" ".atrc" in
  let v3_file = Filename.temp_file "aprof_faults_v3" ".atrc" in
  record trace routines ~format_version:Codec.version v2_file;
  record trace routines ~format_version:1 v1_file;
  record trace routines ~format_version:3 v3_file;
  let pristine = In_channel.with_open_bin v2_file In_channel.input_all in
  let pristine_v3 = In_channel.with_open_bin v3_file In_channel.input_all in
  let total = String.length pristine in
  Format.fprintf ppf "trace: %d events, %d bytes (v2), %d bytes (v3)@."
    (Aprof_trace.Trace.length trace) total
    (String.length pristine_v3);

  (* --- integrity cost: v1 vs v2 decode throughput -------------------

     Raw batch decode, counting events off the batch lengths: rendering
     each event (as the fault sweep below does) costs an order of
     magnitude more than decoding it and would bury the checksum in
     noise. *)
  let decode_raw file =
    In_channel.with_open_bin file (fun ic ->
        let _, src = Codec.batch_reader ic in
        let count = ref 0 in
        let rec loop () =
          match src () with
          | None -> !count
          | Some b ->
            count := !count + Aprof_trace.Event.Batch.length b;
            loop ()
        in
        loop ())
  in
  let reps = if quick then 5 else 7 in
  (* One decode of the quick-mode trace takes ~2 ms — below the clock
     granularity — so each timing sample amortizes many decodes; the v1
     and v2 samples interleave so machine jitter hits both formats
     alike. *)
  let iters = if quick then 50 else 20 in
  let sample file =
    let dt, n =
      Exp_common.time (fun () ->
          let n = ref 0 in
          for _ = 1 to iters do
            n := decode_raw file
          done;
          !n)
    in
    (dt /. float_of_int iters, n)
  in
  let v1_best = ref infinity and v2_best = ref infinity in
  let v3_best = ref infinity in
  let v1_count = ref 0 and v2_count = ref 0 in
  for _ = 1 to reps do
    let s1, n1 = sample v1_file in
    let s2, n2 = sample v2_file in
    let s3, n3 = sample v3_file in
    if s1 < !v1_best then v1_best := s1;
    if s2 < !v2_best then v2_best := s2;
    if s3 < !v3_best then v3_best := s3;
    v1_count := n1;
    v2_count := n2;
    assert (n3 = n2)
  done;
  let v1_s, v1_count = (!v1_best, !v1_count) in
  let v2_s, v2_count = (!v2_best, !v2_count) in
  let v3_s = !v3_best in
  assert (v1_count = v2_count);
  let ref_count, ref_crc =
    In_channel.with_open_bin v2_file (fun ic ->
        let _, src = Codec.batch_reader ic in
        stream_digest src)
  in
  assert (ref_count = v2_count);
  let rate n s = if s > 0. then float_of_int n /. s /. 1e6 else 0. in
  let crc_s, _ =
    Exp_common.time (fun () ->
        let acc = ref 0 in
        for _ = 1 to reps do
          acc := Crc32c.digest_string pristine ~pos:0 ~len:total
        done;
        !acc)
  in
  Format.fprintf ppf "crc32c alone: %.0f MB/s@."
    (float_of_int (total * reps) /. crc_s /. 1e6);
  Format.fprintf ppf
    "v1 decode: %.2fM events/s; v2 decode: %.2fM events/s; v3 decode: %.2fM \
     events/s@."
    (rate ref_count v1_s) (rate ref_count v2_s) (rate ref_count v3_s);
  Format.fprintf ppf "checksum overhead: %+.1f%% decode time@."
    ((v2_s -. v1_s) /. v1_s *. 100.);

  (* --- randomized fault sweep ---------------------------------------

     Run once per container version: v3's transform layer (packed
     chunks, optional entropy coding) sits below the same CRC framing,
     so the trichotomy must hold through it just as it does for plain
     v2 record chunks. *)
  let rng = Rng.create 4242 in
  let n_faults = if quick then 200 else 1000 in
  let sweep ~label pristine =
  let total = String.length pristine in
  let strict_identical = ref 0 in
  let strict_clean = ref 0 in
  let salvage_identical = ref 0 in
  let salvaged = ref 0 in
  let salvage_refused = ref 0 in
  let wrong = ref 0 in
  let events_recovered = ref 0 in
  let events_total = ref 0 in
  let salvage_time = ref 0. in
  for _ = 1 to n_faults do
    (* Flip 1..4 random bytes, or truncate, biased towards flips. *)
    let bytes = Bytes.of_string pristine in
    let m =
      if Rng.int rng 100 < 80 then begin
        for _ = 0 to Rng.int rng 4 do
          let i = Rng.int rng total in
          Bytes.set bytes i
            (Char.chr (Char.code (Bytes.get bytes i) lxor (1 + Rng.int rng 255)))
        done;
        Bytes.unsafe_to_string bytes
      end
      else String.sub pristine 0 (Rng.int rng total)
    in
    Out_channel.with_open_bin mutant (fun oc -> output_string oc m);
    (match
       In_channel.with_open_bin mutant (fun ic ->
           let _, src = Codec.batch_reader ic in
           stream_digest src)
     with
    | count, crc ->
      if count = ref_count && crc = ref_crc then incr strict_identical
      else incr wrong
    | exception Stream.Decode_error _ -> incr strict_clean
    | exception e ->
      incr wrong;
      Format.fprintf ppf "FAILURE: strict decode leaked %s@."
        (Printexc.to_string e));
    match
      Exp_common.time (fun () ->
          In_channel.with_open_bin mutant (fun ic ->
              let drops = ref 0 in
              let _, src =
                Codec.read ~path:mutant
                  ~on_corrupt:(`Skip (fun _ -> incr drops))
                  ic
              in
              let count, _ = stream_digest src in
              (count, !drops)))
    with
    | dt, (count, drops) ->
      salvage_time := !salvage_time +. dt;
      events_recovered := !events_recovered + count;
      events_total := !events_total + ref_count;
      if count = ref_count && drops = 0 then incr salvage_identical
      else incr salvaged
    | exception Stream.Decode_error _ -> incr salvage_refused
    | exception e ->
      incr wrong;
      Format.fprintf ppf "FAILURE: salvage leaked %s@." (Printexc.to_string e)
  done;
  Format.fprintf ppf
    "%s: %d faults: strict %d identical / %d clean errors / %d WRONG@." label
    n_faults !strict_identical !strict_clean !wrong;
  Format.fprintf ppf
    "%s salvage: %d intact, %d recovered with drops, %d beyond salvage; \
     %.1f%% of events recovered; %.2fM events/s while salvaging@."
    label !salvage_identical !salvaged !salvage_refused
    (100. *. float_of_int !events_recovered /. float_of_int !events_total)
    (rate !events_recovered !salvage_time);
  if !wrong > 0 then
    Format.fprintf ppf "FAILURE: %d %s faults produced a wrong decode@." !wrong
      label
  else Format.fprintf ppf "%s: trichotomy held on every fault@." label
  in
  sweep ~label:"v2" pristine;
  sweep ~label:"v3" pristine_v3;
  Sys.remove v2_file;
  Sys.remove v1_file;
  Sys.remove v3_file;
  Sys.remove mutant
