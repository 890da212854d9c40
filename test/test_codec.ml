(* Round-trip properties of the binary trace codec: every event variant
   must survive encode/decode over the full int range, whole traces must
   decode identically through the binary and the text format, and
   routine-name definition records must carry arbitrary (empty, unicode)
   names byte-exactly.  Malformed input must be rejected, not crash. *)

module Event = Aprof_trace.Event
module Trace = Aprof_trace.Trace
module Stream = Aprof_trace.Trace_stream
module Codec = Aprof_trace.Trace_codec

let gen_payload =
  QCheck2.Gen.(
    frequency
      [
        (4, small_nat);
        (2, int_bound 1_000_000);
        (2, int);
        ( 1,
          oneofl [ 0; 1; -1; max_int; max_int - 1; min_int; min_int + 1 ] );
      ])

let gen_event =
  let open QCheck2.Gen in
  let* tag = int_range 1 14 in
  let* a = gen_payload in
  let* b = gen_payload in
  let* c = gen_payload in
  (* Decoders validate at the batch edge — addresses non-negative, tids
     in [0, max_tid], locks in [0, max_lock] — so those fields must be
     in range for a round trip; masking keeps the extreme magnitudes.
     Unconstrained payloads still sweep the full int range. *)
  let addr = b land max_int in
  let tid = a land Event.max_tid in
  let lock = b land Event.max_lock in
  return
    (match tag with
    | 1 -> Event.Call { tid; routine = b }
    | 2 -> Event.Return { tid }
    | 3 -> Event.Read { tid; addr }
    | 4 -> Event.Write { tid; addr }
    | 5 -> Event.Block { tid; units = b }
    | 6 -> Event.User_to_kernel { tid; addr; len = c }
    | 7 -> Event.Kernel_to_user { tid; addr; len = c }
    | 8 -> Event.Acquire { tid; lock }
    | 9 -> Event.Release { tid; lock }
    | 10 -> Event.Alloc { tid; addr; len = c }
    | 11 -> Event.Free { tid; addr; len = c }
    | 12 -> Event.Thread_start { tid }
    | 13 -> Event.Thread_exit { tid }
    | _ -> Event.Switch_thread { tid })

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

let decode_exn s =
  match Codec.of_string s with
  | Ok (tr, names) -> (tr, names)
  | Error e -> Alcotest.failf "decode failed: %s" e

let event_round_trip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"decode (encode e) = e, every variant"
       ~count:2000 ~print:Event.to_string gen_event (fun ev ->
         let tr, _ = decode_exn (Codec.to_string (Trace.of_list [ ev ])) in
         Trace.length tr = 1 && Event.equal (Trace.get tr 0) ev))

let trace_equal name a b =
  Alcotest.(check (list string))
    name
    (List.map Event.to_line (Trace.to_list a))
    (List.map Event.to_line (Trace.to_list b))

let whole_trace_round_trip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"binary and text decode agree on whole traces"
       ~count:300 ~print:Gen_trace.print (Gen_trace.gen ()) (fun trace ->
         let from_binary, _ = decode_exn (Codec.to_string trace) in
         (* Same trace through the text format. *)
         let from_text =
           Trace.of_list
             (List.map
                (fun ev ->
                  match Event.of_line (Event.to_line ev) with
                  | Ok e -> e
                  | Error m -> Alcotest.failf "text decode: %s" m)
                (Trace.to_list trace))
         in
         trace_equal "binary round trip" from_binary trace;
         trace_equal "binary = text" from_binary from_text;
         true))

let names_round_trip () =
  let names = [| ""; "h\xc3\xa9llo \xe2\x86\x92 \xe4\xb8\x96\xe7\x95\x8c"; "plain name with spaces" |] in
  let trace =
    Trace.of_list
      [
        Event.Call { tid = 0; routine = 2 };
        Event.Return { tid = 0 };
        Event.Call { tid = 0; routine = 0 };
        Event.Call { tid = 0; routine = 1 };
        Event.Return { tid = 0 };
        Event.Return { tid = 0 };
        Event.Call { tid = 0; routine = 1 };
        Event.Return { tid = 0 };
      ]
  in
  let s = Codec.to_string ~routine_name:(fun id -> names.(id)) trace in
  let decoded, table = decode_exn s in
  trace_equal "events" decoded trace;
  (* One definition per routine, in first-use order, names byte-exact. *)
  Alcotest.(check (list (pair int string)))
    "embedded name table"
    [ (2, names.(2)); (0, names.(0)); (1, names.(1)) ]
    table

let channel_round_trip () =
  let trace =
    QCheck2.Gen.generate1 ~rand:(Random.State.make [| 7 |]) (Gen_trace.gen ())
  in
  let file = Filename.temp_file "aprof_test" ".atrc" in
  Out_channel.with_open_bin file (fun oc ->
      (* A tiny chunk forces many flushes. *)
      let sink = Codec.batch_writer ~chunk_bytes:64 oc in
      Trace.replay trace sink.Stream.emit_batch;
      sink.Stream.close_batch ());
  let decoded, names =
    In_channel.with_open_bin file (fun ic ->
        match Codec.detect ic with
        | `Text -> Alcotest.fail "binary file detected as text"
        | `Binary ->
          let names, src = Codec.batch_reader ~chunk_bytes:64 ic in
          let tr = Helpers.trace_of_batches src in
          (tr, names))
  in
  Sys.remove file;
  trace_equal "channel round trip" decoded trace;
  (* Every routine referenced by a Call must have been defined. *)
  Trace.iter
    (function
      | Event.Call { routine; _ } ->
        if not (Hashtbl.mem names routine) then
          Alcotest.failf "routine %d has no definition record" routine
      | _ -> ())
    trace

let rejects_garbage () =
  let check_error name s =
    match Codec.of_string s with
    | Ok _ -> Alcotest.failf "%s: expected decode error" name
    | Error _ -> ()
  in
  check_error "empty" "";
  check_error "bad magic" "NOPE\x01";
  check_error "bad version" "ATRC\x63";
  check_error "truncated header" "ATR";
  let valid = Codec.to_string (Trace.of_list [ Event.Read { tid = 1; addr = 2 } ]) in
  (* [valid] ends with the end-of-trace marker byte. *)
  let unterminated = String.sub valid 0 (String.length valid - 1) in
  check_error "truncated mid-record" (String.sub valid 0 (String.length valid - 2));
  check_error "truncated at a record boundary (marker missing)" unterminated;
  check_error "unknown tag" (unterminated ^ "\xff\x00");
  check_error "trailing data after marker" (valid ^ "x");
  (* Text files must not be mistaken for binary ones. *)
  let file = Filename.temp_file "aprof_test" ".trace" in
  Out_channel.with_open_bin file (fun oc -> output_string oc "C 0 1\nR 0\n");
  let fmt = In_channel.with_open_bin file Codec.detect in
  Sys.remove file;
  Alcotest.(check bool) "text detected" true (fmt = `Text)

(* Negative addresses die at the decode edge, not inside a tool's shadow
   lookup: the codec happily encodes them (zigzag covers the full int
   range), so the decoder must be the one to refuse. *)
let rejects_negative_addrs () =
  List.iter
    (fun (name, ev) ->
      let s = Codec.to_string (Trace.of_list [ ev ]) in
      (match Codec.of_string s with
      | Ok _ -> Alcotest.failf "%s: negative address was accepted" name
      | Error msg ->
        Alcotest.(check bool)
          (name ^ ": error names the address") true
          (contains ~sub:"negative address" msg));
      (* The streaming batch reader rejects too. *)
      let file = Filename.temp_file "aprof_negaddr" ".atrc" in
      Out_channel.with_open_bin file (fun oc -> output_string oc s);
      (match
         In_channel.with_open_bin file (fun ic ->
             let _names, batches = Codec.batch_reader ic in
             batches ())
       with
      | exception Stream.Decode_error _ -> ()
      | _ -> Alcotest.failf "%s: batch reader accepted it" name);
      Sys.remove file)
    [
      ("read", Event.Read { tid = 0; addr = -1 });
      ("write", Event.Write { tid = 0; addr = min_int });
      ("user-to-kernel", Event.User_to_kernel { tid = 0; addr = -7; len = 3 });
      ("kernel-to-user", Event.Kernel_to_user { tid = 0; addr = -7; len = 3 });
      ("alloc", Event.Alloc { tid = 0; addr = -2; len = 1 });
      ("free", Event.Free { tid = 0; addr = -2; len = 1 });
    ];
  (* The text edge rejects identically. *)
  List.iter
    (fun line ->
      match Event.of_line line with
      | Error msg ->
        Alcotest.(check bool)
          (line ^ ": text error names the address") true
          (contains ~sub:"negative address" msg)
      | Ok _ -> Alcotest.failf "%S: text decode accepted a negative address" line)
    [ "L 0 -1"; "S 0 -9"; "U 0 -2 3"; "K 0 -2 3"; "M 0 -4 1"; "F 0 -4 1" ];
  (* Negative payloads that are not addresses still round trip. *)
  let ev = Event.Block { tid = 0; units = -5 } in
  match Codec.of_string (Codec.to_string (Trace.of_list [ ev ])) with
  | Ok (tr, _) ->
    Alcotest.(check bool) "negative non-address payload survives" true
      (Trace.length tr = 1 && Event.equal (Trace.get tr 0) ev)
  | Error msg -> Alcotest.failf "negative units rejected: %s" msg

(* Out-of-range thread and lock ids die at the same edge: tools keep
   per-thread state dense in the tid (and pack it into 16-bit epochs),
   and lockset memo keys pack the lock id below bit 31, so a tid or lock
   the encoder happily zigzags must be refused on decode — as a decode
   error, not an Invalid_argument from inside a tool mid-replay. *)
let rejects_bad_ids () =
  List.iter
    (fun (name, sub, ev) ->
      match Codec.of_string (Codec.to_string (Trace.of_list [ ev ])) with
      | Ok _ -> Alcotest.failf "%s: out-of-range id was accepted" name
      | Error msg ->
        Alcotest.(check bool)
          (name ^ ": error names the field") true (contains ~sub msg))
    [
      ("negative tid", "thread id", Event.Read { tid = -1; addr = 0 });
      ( "tid beyond max_tid",
        "thread id",
        Event.Write { tid = Event.max_tid + 1; addr = 0 } );
      ("huge tid", "thread id", Event.Thread_start { tid = max_int });
      ("negative lock", "lock id", Event.Acquire { tid = 0; lock = -1 });
      ( "lock beyond max_lock",
        "lock id",
        Event.Release { tid = 0; lock = Event.max_lock + 1 } );
    ];
  (* The text edge rejects identically. *)
  List.iter
    (fun (line, sub) ->
      match Event.of_line line with
      | Error msg ->
        Alcotest.(check bool)
          (line ^ ": text error names the field") true (contains ~sub msg)
      | Ok _ -> Alcotest.failf "%S: text decode accepted an out-of-range id" line)
    [
      ("L -1 0", "thread id");
      (Printf.sprintf "S %d 0" (Event.max_tid + 1), "thread id");
      ("A 0 -1", "lock id");
      (Printf.sprintf "E 0 %d" (Event.max_lock + 1), "lock id");
    ];
  (* The bounds themselves are admissible. *)
  let ev = Event.Acquire { tid = Event.max_tid; lock = Event.max_lock } in
  match Codec.of_string (Codec.to_string (Trace.of_list [ ev ])) with
  | Ok (tr, _) ->
    Alcotest.(check bool) "boundary ids survive" true
      (Trace.length tr = 1 && Event.equal (Trace.get tr 0) ev)
  | Error msg -> Alcotest.failf "boundary ids rejected: %s" msg

(* --- shard index ------------------------------------------------------ *)

let sample_trace seed =
  QCheck2.Gen.generate1 ~rand:(Random.State.make [| seed |]) (Gen_trace.gen ())

(* Small chunks and batches so even the generator's short traces span
   several index entries. *)
let write_binary ?(index = true) ?format_version trace file =
  Out_channel.with_open_bin file (fun oc ->
      let sink = Codec.batch_writer ~chunk_bytes:128 ~index ?format_version oc in
      let batches = Helpers.batches_of_trace ~batch_size:16 trace in
      let rec loop () =
        match batches () with
        | None -> ()
        | Some b ->
          sink.Stream.emit_batch b;
          loop ()
      in
      loop ();
      sink.Stream.close_batch ())

let decode_source src = Helpers.trace_of_batches src

(* Every chunk of [shs], in file order, through one chunk session — the
   seek path the parallel replay engine uses. *)
let session_read ?keep ic shs =
  let names, read = Codec.chunk_session ?keep ic in
  let parts = Array.map (fun sh -> Trace.to_list (decode_source (read sh))) shs in
  (Trace.of_list (List.concat (Array.to_list parts)), names)

let rec uvarint_size v = if v < 0x80 then 1 else 1 + uvarint_size (v lsr 7)

let shard_index_round_trip () =
  let trace = sample_trace 11 in
  let file = Filename.temp_file "aprof_test" ".atrc" in
  write_binary trace file;
  In_channel.with_open_bin file (fun ic ->
      match Codec.shards ~path:file ic with
      | None -> Alcotest.fail "indexed file reports no shard index"
      | Some shs ->
        Alcotest.(check bool) "several chunks" true (Array.length shs >= 2);
        (* Chunk payloads tile the record region, starting right after
           the 5-byte header; each version-2 frame puts a length varint
           and 4 CRC bytes in front of its payload. *)
        let off = ref 5 in
        Array.iter
          (fun (sh : Codec.shard) ->
            Alcotest.(check int) "contiguous offsets"
              (!off + uvarint_size sh.Codec.bytes + 4)
              sh.Codec.offset;
            Alcotest.(check bool) "index carries the payload checksum" true
              (sh.Codec.crc >= 0);
            off := sh.Codec.offset + sh.Codec.bytes)
          shs;
        Alcotest.(check int) "every event accounted for" (Trace.length trace)
          (Array.fold_left (fun acc sh -> acc + sh.Codec.events) 0 shs);
        (* Reading every chunk reproduces the whole trace, and the name
           table then covers every Call. *)
        let decoded, names = session_read ic shs in
        trace_equal "session read = original" decoded trace;
        Trace.iter
          (function
            | Event.Call { routine; _ } ->
              if not (Hashtbl.mem names routine) then
                Alcotest.failf "routine %d lost its definition" routine
            | _ -> ())
          trace);
  Sys.remove file

let session_reads_one_chunk () =
  let trace = sample_trace 12 in
  let file = Filename.temp_file "aprof_test" ".atrc" in
  write_binary trace file;
  In_channel.with_open_bin file (fun ic ->
      let shs = Option.get (Codec.shards ~path:file ic) in
      let _, read = Codec.chunk_session ic in
      let parts = ref [] in
      Array.iter
        (fun (sh : Codec.shard) ->
          let src = read sh in
          let part = decode_source src in
          Alcotest.(check int) "chunk event count" sh.Codec.events
            (Trace.length part);
          (* The index's tid set really describes the chunk. *)
          Trace.iter
            (fun ev ->
              let tid = Event.tid ev in
              if not (Array.exists (( = ) tid) sh.Codec.tids) then
                Alcotest.failf "tid %d missing from the chunk's tid set" tid)
            part;
          parts := Trace.to_list part :: !parts)
        shs;
      let glued = Trace.of_list (List.concat (List.rev !parts)) in
      trace_equal "chunks glue back into the trace" glued trace);
  Sys.remove file

let index_compat () =
  let trace = sample_trace 13 in
  let file = Filename.temp_file "aprof_test" ".atrc" in
  (* Index-less files (the pre-index format, or ~index:false) decode as
     before and report no shards. *)
  write_binary ~index:false trace file;
  In_channel.with_open_bin file (fun ic ->
      Alcotest.(check bool) "no index" true (Codec.shards ~path:file ic = None);
      In_channel.seek ic 0L;
      let _, src = Codec.batch_reader ic in
      trace_equal "index-less file decodes" (decode_source src) trace);
  (* Old-style streaming consumers skip the footer of an indexed file. *)
  write_binary ~index:true trace file;
  In_channel.with_open_bin file (fun ic ->
      let _, src = Codec.batch_reader ic in
      trace_equal "streaming read of an indexed file" (decode_source src) trace);
  In_channel.with_open_bin file (fun ic ->
      let _, src = Codec.batch_reader ~batch_size:1 ic in
      trace_equal "per-event read of an indexed file" (decode_source src)
        trace);
  Sys.remove file

let corrupt_footer_is_named () =
  let trace = sample_trace 14 in
  let file = Filename.temp_file "aprof_corrupt" ".atrc" in
  write_binary trace file;
  let bytes = In_channel.with_open_bin file In_channel.input_all in
  let total = String.length bytes in
  let footer_off =
    let v = ref 0 in
    for i = 7 downto 0 do
      v := (!v lsl 8) lor Char.code bytes.[total - 12 + i]
    done;
    !v
  in
  let expect ?(wants_offset = true) name mutated =
    Out_channel.with_open_bin file (fun oc -> output_string oc mutated);
    In_channel.with_open_bin file (fun ic ->
        match Codec.shards ~path:file ic with
        | exception Stream.Decode_error msg ->
          Alcotest.(check bool) (name ^ ": names the file") true
            (contains ~sub:file msg);
          if wants_offset then
            Alcotest.(check bool) (name ^ ": names a byte offset") true
              (contains ~sub:"byte" msg)
        | Some _ -> Alcotest.failf "%s: corrupt index was accepted" name
        | None -> Alcotest.failf "%s: corrupt index read as index-less" name)
  in
  let set i c = String.mapi (fun j x -> if j = i then c else x) bytes in
  expect "bad footer magic" (set footer_off 'X');
  expect ~wants_offset:false "unsupported index version"
    (set (footer_off + 4) '\x63');
  (* A byte chopped out of the footer body desynchronizes the parse:
     the error must still point into the file, not crash. *)
  expect "truncated footer body"
    (String.sub bytes 0 (footer_off + 6)
    ^ String.sub bytes (footer_off + 7) (total - footer_off - 7));
  Sys.remove file

(* --- format versions -------------------------------------------------- *)

(* The version-1 byte stream is frozen: pre-checksum readers and files
   must keep interoperating, so the writer's v1 output is pinned to a
   hand-assembled golden vector. *)
let v1_golden_bytes () =
  let trace =
    Trace.of_list [ Event.Call { tid = 0; routine = 0 }; Event.Return { tid = 0 } ]
  in
  let s =
    Codec.to_string ~format_version:1 ~routine_name:(fun _ -> "f") trace
  in
  (* header, def(0,"f"), Call(0,0), Return(0), end marker *)
  Alcotest.(check string) "v1 golden"
    "ATRC\x01\x0f\x00\x02f\x01\x00\x00\x02\x00\x00" s;
  (* And the same trace in version 2: one frame of the same 9 record
     bytes, length-prefixed and checksummed. *)
  let payload = "\x0f\x00\x02f\x01\x00\x00\x02\x00" in
  let crc =
    Aprof_util.Crc32c.digest_string payload ~pos:0 ~len:(String.length payload)
  in
  let le32 =
    String.init 4 (fun i -> Char.chr ((crc lsr (8 * i)) land 0xff))
  in
  let v2 = Codec.to_string ~routine_name:(fun _ -> "f") trace in
  Alcotest.(check string) "v2 golden"
    ("ATRC\x02\x09" ^ le32 ^ payload ^ "\x00")
    v2

let v1_compat () =
  let trace = sample_trace 15 in
  let file = Filename.temp_file "aprof_v1" ".atrc" in
  write_binary ~format_version:1 trace file;
  (* A version-1 file replays identically through every read path. *)
  In_channel.with_open_bin file (fun ic ->
      let _, src = Codec.batch_reader ic in
      trace_equal "v1 streaming read" (decode_source src) trace);
  In_channel.with_open_bin file (fun ic ->
      match Codec.shards ~path:file ic with
      | None -> Alcotest.fail "v1 indexed file reports no shard index"
      | Some shs ->
        (* v1 chunks have no frame headers and no stored checksum. *)
        let off = ref 5 in
        Array.iter
          (fun (sh : Codec.shard) ->
            Alcotest.(check int) "v1 contiguous offsets" !off sh.Codec.offset;
            Alcotest.(check int) "v1 has no checksum" (-1) sh.Codec.crc;
            off := !off + sh.Codec.bytes)
          shs;
        trace_equal "v1 session read" (fst (session_read ic shs)) trace);
  (* Writing the same trace twice yields the same bytes (v1 and v2). *)
  let read_all f = In_channel.with_open_bin f In_channel.input_all in
  let first = read_all file in
  write_binary ~format_version:1 trace file;
  Alcotest.(check bool) "v1 deterministic" true (read_all file = first);
  write_binary trace file;
  let v2_first = read_all file in
  write_binary trace file;
  Alcotest.(check bool) "v2 deterministic" true (read_all file = v2_first);
  Sys.remove file

(* --- canonical varints ------------------------------------------------ *)

(* Every value has exactly one encoding: a redundant zero continuation
   tail (0x80 0x00) decodes to the same value through a lax reader, so
   it must be rejected — otherwise two distinct byte streams compare
   unequal yet replay identically, breaking byte-diffability. *)
let rejects_noncanonical_varints () =
  let check_error name expect s =
    match Codec.of_string s with
    | Ok _ -> Alcotest.failf "%s: expected decode error" name
    | Error msg ->
      Alcotest.(check bool)
        (name ^ ": error says " ^ expect)
        true (contains ~sub:expect msg)
  in
  (* Return{tid=0} is tag 0x02 then tid varint; canonical tid 0 is a
     single 0x00 byte. *)
  let v1 body = "ATRC\x01" ^ body ^ "\x00" in
  check_error "overlong zero tid" "non-canonical"
    (v1 "\x02\x80\x00");
  check_error "doubly overlong tid" "non-canonical"
    (v1 "\x02\x80\x80\x00");
  check_error "overlong tid 1" "non-canonical" (v1 "\x02\x82\x80\x00");
  (* Ten continuation groups shift past the int width: overflow, not
     Invalid_argument from a wild [lsl]. *)
  check_error "varint overflow" "overflows"
    (v1 ("\x02" ^ String.make 9 '\xff' ^ "\x7f"));
  (* A canonical 9-byte varint fills the 63-bit int exactly; a tenth
     group always falls off the top. *)
  check_error "ten-group overflow" "overflows"
    (v1 ("\x02" ^ String.make 9 '\x81' ^ "\x01"));
  (* The same bytes inside a correctly-checksummed v2 frame must die in
     the record decoder, not sneak past the CRC. *)
  let v2_frame payload =
    let crc =
      Aprof_util.Crc32c.digest_string payload ~pos:0
        ~len:(String.length payload)
    in
    "ATRC\x02"
    ^ String.make 1 (Char.chr (String.length payload))
    ^ String.init 4 (fun i -> Char.chr ((crc lsr (8 * i)) land 0xff))
    ^ payload ^ "\x00"
  in
  check_error "overlong varint inside a valid v2 frame" "non-canonical"
    (v2_frame "\x02\x80\x00");
  (* Canonical encodings at the width boundary still round trip. *)
  List.iter
    (fun v ->
      let ev = Event.Block { tid = 0; units = v } in
      match Codec.of_string (Codec.to_string (Trace.of_list [ ev ])) with
      | Ok (tr, _) ->
        Alcotest.(check bool)
          (Printf.sprintf "boundary value %d survives" v)
          true
          (Trace.length tr = 1 && Event.equal (Trace.get tr 0) ev)
      | Error msg -> Alcotest.failf "boundary value %d rejected: %s" v msg)
    [ max_int; min_int; max_int asr 1; min_int asr 1; 1 lsl 55; -(1 lsl 55) ]

(* --- checksums -------------------------------------------------------- *)

(* A flipped payload byte must be caught by the CRC before any record
   decoding — both in the streaming reader and the seeking one. *)
let checksum_mismatch_detected () =
  let trace = sample_trace 16 in
  let file = Filename.temp_file "aprof_crc" ".atrc" in
  write_binary trace file;
  let bytes = In_channel.with_open_bin file In_channel.input_all in
  let shs =
    In_channel.with_open_bin file (fun ic ->
        Option.get (Codec.shards ~path:file ic))
  in
  let sh = shs.(Array.length shs / 2) in
  (* Flip a byte in the middle of that chunk's payload. *)
  let i = sh.Codec.offset + (sh.Codec.bytes / 2) in
  let corrupt =
    String.mapi
      (fun j c -> if j = i then Char.chr (Char.code c lxor 0x40) else c)
      bytes
  in
  Out_channel.with_open_bin file (fun oc -> output_string oc corrupt);
  (match
     In_channel.with_open_bin file (fun ic ->
         let _, src = Codec.batch_reader ic in
         ignore (decode_source src))
   with
  | exception Stream.Decode_error msg ->
    Alcotest.(check bool) "streaming read names the checksum" true
      (contains ~sub:"checksum" msg)
  | () -> Alcotest.fail "streaming read accepted a corrupt chunk");
  (match
     In_channel.with_open_bin file (fun ic -> ignore (session_read ic shs))
   with
  | exception Stream.Decode_error msg ->
    Alcotest.(check bool) "session read names the checksum" true
      (contains ~sub:"checksum" msg)
  | () -> Alcotest.fail "session read accepted a corrupt chunk");
  (* Salvage mode recovers every other chunk and reports the drop. *)
  let drops = ref [] in
  let names, src =
    In_channel.with_open_bin file (fun ic ->
        let names, src =
          Codec.read ~path:file ~on_corrupt:(`Skip (fun d -> drops := d :: !drops)) ic
        in
        (names, decode_source src))
  in
  ignore names;
  (match !drops with
  | [ d ] ->
    Alcotest.(check int) "dropped the corrupt chunk"
      (Array.length shs / 2) d.Codec.drop_chunk;
    Alcotest.(check int) "drop names the offset" sh.Codec.offset
      d.Codec.drop_offset;
    Alcotest.(check int) "drop advertises the event count" sh.Codec.events
      d.Codec.drop_events;
    Alcotest.(check bool) "drop names the cause" true
      (contains ~sub:"checksum" d.Codec.drop_reason)
  | ds -> Alcotest.failf "expected exactly one drop, got %d" (List.length ds));
  Alcotest.(check int) "salvage recovers the other chunks"
    (Array.fold_left (fun acc (s : Codec.shard) -> acc + s.Codec.events) 0 shs
    - sh.Codec.events)
    (Trace.length src);
  Sys.remove file

let suite =
  [
    event_round_trip;
    whole_trace_round_trip;
    Alcotest.test_case "routine names round trip (empty, unicode)" `Quick
      names_round_trip;
    Alcotest.test_case "writer/reader channel round trip" `Quick
      channel_round_trip;
    Alcotest.test_case "malformed input is rejected" `Quick rejects_garbage;
    Alcotest.test_case "negative addresses rejected at the decode edge"
      `Quick rejects_negative_addrs;
    Alcotest.test_case "out-of-range thread/lock ids rejected at the decode edge"
      `Quick rejects_bad_ids;
    Alcotest.test_case "shard index round trip" `Quick shard_index_round_trip;
    Alcotest.test_case "chunk_session reads exactly one chunk" `Quick
      session_reads_one_chunk;
    Alcotest.test_case "index-less and indexed files interoperate" `Quick
      index_compat;
    Alcotest.test_case "corrupt shard index names file and offset" `Quick
      corrupt_footer_is_named;
    Alcotest.test_case "v1/v2 byte streams are pinned" `Quick v1_golden_bytes;
    Alcotest.test_case "version-1 files stay fully readable" `Quick v1_compat;
    Alcotest.test_case "non-canonical varints are rejected" `Quick
      rejects_noncanonical_varints;
    Alcotest.test_case "chunk checksum mismatches are caught and salvageable"
      `Quick checksum_mismatch_detected;
  ]
