(* Fault-injection sweep over a recorded trace.

   Where test/fault_inject.ml exhaustively mutates a small synthetic
   trace, this experiment throws randomized faults at a real recorded
   blackscholes trace at full chunk size and measures the outcome
   distribution — every fault must land in the trichotomy (identical
   decode / clean decode error / salvage with advertised drops), and a
   wrong decode is a hard failure — plus what integrity costs: v2
   (checksummed) decode throughput against v1, and salvage throughput
   on damaged inputs. *)

module Stream = Aprof_trace.Trace_stream
module Codec = Aprof_trace.Trace_codec
module Batch = Aprof_trace.Event.Batch
module Crc32c = Aprof_util.Crc32c
module Rng = Aprof_util.Rng

(* Events are compared by count plus a running CRC32C of their raw
   fields: each batch's tags, tids, args and lens are packed into one
   reused buffer, eight bytes a field, and digested in one call.  A CRC
   chains over concatenation, so the digest does not depend on where
   the reader ends its batches.  [read f] hands every batch to [f] and
   returns the event count. *)
let stream_digest read =
  let crc = ref 0 in
  let buf = ref Bytes.empty in
  let digest b =
    let n = Batch.length b in
    if Bytes.length !buf < 32 * n then buf := Bytes.create (32 * n);
    let out = !buf in
    let tags = Batch.tags b and tids = Batch.tids b in
    let args = Batch.args b and lens = Batch.lens b in
    for i = 0 to n - 1 do
      Bytes.set_int64_le out (32 * i) (Int64.of_int tags.(i));
      Bytes.set_int64_le out ((32 * i) + 8) (Int64.of_int tids.(i));
      Bytes.set_int64_le out ((32 * i) + 16) (Int64.of_int args.(i));
      Bytes.set_int64_le out ((32 * i) + 24) (Int64.of_int lens.(i))
    done;
    crc := Crc32c.digest ~crc:!crc out ~pos:0 ~len:(32 * n)
  in
  let count = read digest in
  (count, !crc)

let run ~quick ppf =
  Exp_common.section ppf "faults: injection and salvage on a recorded trace";
  let target = if quick then 100_000 else 600_000 in
  let paths, n_events =
    Exp_common.record ~target "blackscholes"
      [ (Codec.version, false); (1, false); (3, false) ]
  in
  let v2_file, v1_file, v3_file =
    match paths with [ v2; v1; v3 ] -> (v2, v1, v3) | _ -> assert false
  in
  let mutant = Filename.temp_file "aprof_faults_mut" ".atrc" in
  let pristine = In_channel.with_open_bin v2_file In_channel.input_all in
  let pristine_v3 = In_channel.with_open_bin v3_file In_channel.input_all in
  let total = String.length pristine in
  Format.fprintf ppf "trace: %d events, %d bytes (v2), %d bytes (v3)@."
    n_events total (String.length pristine_v3);

  (* --- integrity cost: v1 vs v2 decode throughput -------------------

     Raw batch decode, counting events off the batch lengths: digesting
     each event's fields (as the fault sweep below does) would add its
     own cost to the checksum's.  A decode of the quick-mode trace takes
     about 2 ms, so the sampler repeats it within each sample. *)
  let strict ic f = snd (Codec.read ~on_corrupt:`Fail ic f) in
  let decode file time =
    In_channel.with_open_bin file (fun ic ->
        time (fun () ->
            if strict ic ignore <> n_events then
              failwith "faults bench: decoded event count mismatch"))
  in
  let crc time =
    time (fun () -> ignore (Crc32c.digest_string pristine ~pos:0 ~len:total))
  in
  let rounds = Exp_common.rounds ~quick in
  let v1_s, v2_s, v3_s, crc_s =
    match
      Exp_common.sample ~rounds
        [ decode v1_file; decode v2_file; decode v3_file; crc ]
    with
    | [ v1; v2; v3; crc ] -> (v1, v2, v3, crc)
    | _ -> assert false
  in
  let ref_count, ref_crc =
    In_channel.with_open_bin v2_file (fun ic -> stream_digest (strict ic))
  in
  assert (ref_count = n_events);
  let rate n s = if s > 0. then float_of_int n /. s /. 1e6 else 0. in
  let median s = (Exp_common.rate n_events s).median in
  Format.fprintf ppf "crc32c alone: %.0f MB/s@."
    ((Exp_common.rate total crc_s).median);
  Format.fprintf ppf
    "v1 decode: %.2fM events/s; v2 decode: %.2fM events/s; v3 decode: %.2fM \
     events/s@."
    (median v1_s) (median v2_s) (median v3_s);
  Format.fprintf ppf "checksum overhead: %+.1f%% decode time@."
    (((Exp_common.Stats.ratio v2_s v1_s).median -. 1.) *. 100.);

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
       In_channel.with_open_bin mutant (fun ic -> stream_digest (strict ic))
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
              let count, _ =
                stream_digest (fun f ->
                    snd
                      (Codec.read ~path:mutant
                         ~on_corrupt:(`Skip (fun _ -> incr drops))
                         ic f))
              in
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
  List.iter Sys.remove paths;
  Sys.remove mutant
