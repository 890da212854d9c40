(* Fault-injection harness for the binary trace pipeline.

   Every injected fault — a flipped byte, a truncation, a duplicated,
   deleted or reordered chunk frame — must land in exactly one arm of
   the trichotomy:

   - {e identical decode}: the fault touched bytes that do not affect
     decoding (e.g. index fields the streaming reader ignores) and the
     trace reads back exactly as written;
   - {e clean error}: the strict reader raises
     {!Aprof_trace.Trace_stream.Decode_error} — never [Invalid_argument]
     from a wild [unsafe_get], and never any other exception;
   - {e salvage}: under [~on_corrupt:`Skip] the reader delivers a
     subsequence of the original events (whole surviving chunks, in
     order) and advertises a drop whenever anything is missing.

   What must never happen is the fourth outcome: a decode that
   "succeeds" with events that differ from what was written — a wrong
   profile.  Version-1 files cannot make that promise (no checksums:
   a flipped varint byte decodes silently into a different value), which
   is exactly why version 2 exists; for them the harness only asserts
   that nothing escapes except [Decode_error]. *)

module Event = Aprof_trace.Event
module Stream = Aprof_trace.Trace_stream
module Codec = Aprof_trace.Trace_codec
module Vec = Aprof_util.Vec

(* A deterministic trace big enough to span many 128-byte chunks, using
   several threads, routines (so definition records appear), and every
   field shape (args, lens, locks). *)
let reference_trace =
  let v = Aprof_trace.Trace.create () in
  for i = 0 to 499 do
    let tid = i mod 3 in
    match i mod 7 with
    | 0 -> Aprof_trace.Trace.push v (Event.Call { tid; routine = i mod 5 })
    | 1 -> Aprof_trace.Trace.push v (Event.Read { tid; addr = i * 17 })
    | 2 -> Aprof_trace.Trace.push v (Event.Write { tid; addr = (i * 13) + 1 })
    | 3 -> Aprof_trace.Trace.push v (Event.Acquire { tid; lock = i mod 11 })
    | 4 -> Aprof_trace.Trace.push v (Event.Release { tid; lock = i mod 11 })
    | 5 -> Aprof_trace.Trace.push v (Event.Alloc { tid; addr = i * 29; len = 8 + (i mod 9) })
    | _ -> Aprof_trace.Trace.push v (Event.Return { tid })
  done;
  v

let routine_name id = Printf.sprintf "fault_routine_%d" id

let write_trace ?index ?format_version ?entropy file =
  Out_channel.with_open_bin file (fun oc ->
      let sink =
        Codec.batch_writer ~chunk_bytes:128 ?index ?format_version ?entropy
          ~routine_name oc
      in
      let batches = Helpers.batches_of_trace ~batch_size:16 reference_trace in
      let rec loop () =
        match batches () with
        | None -> ()
        | Some b ->
          sink.Stream.emit_batch b;
          loop ()
      in
      loop ();
      sink.Stream.close_batch ())

let read_all file = In_channel.with_open_bin file In_channel.input_all
let write_all file s = Out_channel.with_open_bin file (fun oc -> output_string oc s)

let lines_of tr = List.map Event.to_line (Aprof_trace.Trace.to_list tr)

let sorted_names tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let ref_lines = lines_of reference_trace

let ref_names =
  List.sort_uniq compare
    (List.filter_map
       (function
         | Event.Call { routine; _ } -> Some (routine, routine_name routine)
         | _ -> None)
       (Aprof_trace.Trace.to_list reference_trace))

(* [xs] is a subsequence of [ys]: every delivered event is a real event,
   in the original order — the "never a wrong profile" core. *)
let is_subsequence xs ys =
  let rec go xs ys =
    match (xs, ys) with
    | [], _ -> true
    | _, [] -> false
    | x :: xs', y :: ys' -> if String.equal x y then go xs' ys' else go xs ys'
  in
  go xs ys

(* Fault counter, summed across campaigns and checked against the floor
   at the end of the suite. *)
let faults = ref 0

(* Strict read of a (possibly damaged) file.  The only exception with
   permission to escape the decoder is [Decode_error]. *)
let strict_outcome ~fault file =
  incr faults;
  match
    In_channel.with_open_bin file (fun ic ->
        let names, src = Codec.batch_reader ic in
        let tr = Helpers.trace_of_batches src in
        (lines_of tr, sorted_names names))
  with
  | lines, names -> `Decoded (lines, names)
  | exception Stream.Decode_error _ -> `Clean_error
  | exception e ->
    Alcotest.failf "%s: strict read leaked exception %s" fault
      (Printexc.to_string e)

let salvage_outcome ~fault file =
  match
    In_channel.with_open_bin file (fun ic ->
        let drops = ref [] in
        let _names, src =
          Codec.read ~path:file
            ~on_corrupt:(`Skip (fun d -> drops := d :: !drops))
            ic
        in
        let tr = Helpers.trace_of_batches src in
        (lines_of tr, List.rev !drops))
  with
  | lines, drops -> `Salvaged (lines, drops)
  | exception Stream.Decode_error _ -> `Clean_error
  | exception e ->
    Alcotest.failf "%s: salvage read leaked exception %s" fault
      (Printexc.to_string e)

(* The full trichotomy: strict read is identical or cleanly refused, and
   salvage delivers an advertised subsequence or cleanly refuses. *)
let assert_trichotomy ~fault file =
  (match strict_outcome ~fault file with
  | `Clean_error -> ()
  | `Decoded (lines, names) ->
    if not (List.equal String.equal lines ref_lines) then
      Alcotest.failf "%s: strict decode succeeded with WRONG events" fault;
    if names <> ref_names then
      Alcotest.failf "%s: strict decode succeeded with wrong names" fault);
  match salvage_outcome ~fault file with
  | `Clean_error -> ()
  | `Salvaged (lines, drops) ->
    if not (is_subsequence lines ref_lines) then
      Alcotest.failf "%s: salvage delivered events not in the original trace"
        fault;
    if (not (List.equal String.equal lines ref_lines)) && drops = [] then
      Alcotest.failf "%s: salvage lost events without advertising a drop"
        fault

(* Version-1 files carry no checksums, so a flipped byte can decode
   silently into different events; the harness can only demand that
   nothing crashes. *)
let assert_no_crash ~fault file =
  (match strict_outcome ~fault file with _ -> ());
  match salvage_outcome ~fault file with _ -> ()

let with_pristine ?index ?format_version ?entropy f =
  let src = Filename.temp_file "aprof_fault_src" ".atrc" in
  let dst = Filename.temp_file "aprof_fault" ".atrc" in
  write_trace ?index ?format_version ?entropy src;
  let bytes = read_all src in
  Sys.remove src;
  Fun.protect ~finally:(fun () -> Sys.remove dst) (fun () -> f bytes dst)

let flip s i mask =
  String.mapi
    (fun j c -> if j = i then Char.chr (Char.code c lxor mask) else c)
    s

(* --- campaigns -------------------------------------------------------- *)

let byte_flips_v2 () =
  with_pristine (fun bytes file ->
      write_all file bytes;
      assert_trichotomy ~fault:"pristine" file;
      String.iteri
        (fun i _ ->
          List.iter
            (fun mask ->
              write_all file (flip bytes i mask);
              assert_trichotomy
                ~fault:(Printf.sprintf "flip byte %d mask %#x" i mask)
                file)
            [ 0x01; 0x80 ])
        bytes)

let byte_flips_v2_indexless () =
  with_pristine ~index:false (fun bytes file ->
      String.iteri
        (fun i _ ->
          write_all file (flip bytes i 0x01);
          assert_trichotomy
            ~fault:(Printf.sprintf "index-less flip byte %d" i)
            file)
        bytes)

let truncations_v2 () =
  with_pristine (fun bytes file ->
      for n = 0 to String.length bytes - 1 do
        write_all file (String.sub bytes 0 n);
        assert_trichotomy ~fault:(Printf.sprintf "truncate to %d bytes" n) file
      done)

(* Whole-frame splices: each frame is internally self-consistent (its
   own checksum matches), so only the index footer can expose the edit.
   The footer is left untouched — it describes what the writer flushed. *)
let frame_splices_v2 () =
  with_pristine (fun bytes file ->
      write_all file bytes;
      let shs =
        In_channel.with_open_bin file (fun ic ->
            Option.get (Codec.shards ~path:file ic))
      in
      let rec usize v = if v < 0x80 then 1 else 1 + usize (v lsr 7) in
      (* [start, stop) of chunk [k]'s whole frame, header included. *)
      let frame k =
        let sh = shs.(k) in
        let start = sh.Codec.offset - usize sh.Codec.bytes - 4 in
        (start, sh.Codec.offset + sh.Codec.bytes)
      in
      let nchunks = Array.length shs in
      let _, last_stop = frame (nchunks - 1) in
      let tail = String.sub bytes last_stop (String.length bytes - last_stop) in
      let slice (a, b) = String.sub bytes a (b - a) in
      let rebuild frames = String.sub bytes 0 5 ^ String.concat "" frames ^ tail in
      let all = List.init nchunks (fun k -> slice (frame k)) in
      let splice name frames =
        write_all file (rebuild frames);
        assert_trichotomy ~fault:name file
      in
      for k = 0 to nchunks - 1 do
        splice
          (Printf.sprintf "duplicate chunk %d" k)
          (List.concat_map
             (fun j -> if j = k then [ List.nth all j; List.nth all j ]
               else [ List.nth all j ])
             (List.init nchunks Fun.id));
        splice
          (Printf.sprintf "delete chunk %d" k)
          (List.filteri (fun j _ -> j <> k) all);
        if k + 1 < nchunks then
          splice
            (Printf.sprintf "swap chunks %d and %d" k (k + 1))
            (List.mapi
               (fun j f ->
                 if j = k then List.nth all (k + 1)
                 else if j = k + 1 then List.nth all k
                 else f)
               all)
      done;
      splice "reverse all chunks" (List.rev all))

(* --- version 3: faults through the transform layer -------------------- *)

(* The v3 trichotomy is the same promise as v2's — the container framing
   is identical and every stored payload sits behind the frame CRC, so a
   flip anywhere in a chunk is caught before the transform or packed
   layers ever run.  The campaigns re-run the full battery over v3
   files, entropy on (transform byte 0x03 paths) and off (0x01). *)

let byte_flips_v3 () =
  List.iter
    (fun entropy ->
      with_pristine ~format_version:3 ~entropy (fun bytes file ->
          write_all file bytes;
          assert_trichotomy ~fault:"pristine v3" file;
          String.iteri
            (fun i _ ->
              List.iter
                (fun mask ->
                  write_all file (flip bytes i mask);
                  assert_trichotomy
                    ~fault:
                      (Printf.sprintf "v3 flip byte %d mask %#x (entropy %b)"
                         i mask entropy)
                    file)
                [ 0x01; 0x80 ])
            bytes))
    [ true; false ]

let truncations_v3 () =
  with_pristine ~format_version:3 (fun bytes file ->
      for n = 0 to String.length bytes - 1 do
        write_all file (String.sub bytes 0 n);
        assert_trichotomy
          ~fault:(Printf.sprintf "v3 truncate to %d bytes" n)
          file
      done)

let frame_splices_v3 () =
  with_pristine ~format_version:3 (fun bytes file ->
      write_all file bytes;
      let shs =
        In_channel.with_open_bin file (fun ic ->
            Option.get (Codec.shards ~path:file ic))
      in
      let rec usize v = if v < 0x80 then 1 else 1 + usize (v lsr 7) in
      let frame k =
        let sh = shs.(k) in
        let start = sh.Codec.offset - usize sh.Codec.bytes - 4 in
        (start, sh.Codec.offset + sh.Codec.bytes)
      in
      let nchunks = Array.length shs in
      let _, last_stop = frame (nchunks - 1) in
      let tail = String.sub bytes last_stop (String.length bytes - last_stop) in
      let slice (a, b) = String.sub bytes a (b - a) in
      let rebuild frames =
        String.sub bytes 0 5 ^ String.concat "" frames ^ tail
      in
      let all = List.init nchunks (fun k -> slice (frame k)) in
      let splice name frames =
        write_all file (rebuild frames);
        assert_trichotomy ~fault:name file
      in
      for k = 0 to nchunks - 1 do
        splice
          (Printf.sprintf "v3 duplicate chunk %d" k)
          (List.concat_map
             (fun j ->
               if j = k then [ List.nth all j; List.nth all j ]
               else [ List.nth all j ])
             (List.init nchunks Fun.id));
        splice
          (Printf.sprintf "v3 delete chunk %d" k)
          (List.filteri (fun j _ -> j <> k) all)
      done;
      splice "v3 reverse all chunks" (List.rev all))

(* Deep faults below the checksum: flip a stored payload byte and
   re-stamp the frame CRC, simulating a writer that produced garbage.
   The checksum no longer vouches for the bytes, so wrong-but-decodable
   events are possible (as in v1) — what must still hold is that the
   transform and packed decoders map arbitrary garbage to
   [Decode_error], never to a crash, a wild [unsafe_get], or an
   out-of-range batch. *)
let packed_garbage_no_crash () =
  List.iter
    (fun entropy ->
      with_pristine ~format_version:3 ~index:false ~entropy
        (fun bytes file ->
          let n = String.length bytes in
          (* Walk the frames: header at 5, each [len:uvarint crc:le32
             payload], a zero length byte is the end marker. *)
          let pos = ref 5 in
          let continue = ref true in
          while !continue do
            let p0 = !pos in
            let paylen = ref 0 in
            let shift = ref 0 in
            let more = ref true in
            while !more do
              let b = Char.code bytes.[!pos] in
              incr pos;
              paylen := !paylen lor ((b land 0x7f) lsl !shift);
              shift := !shift + 7;
              more := b land 0x80 <> 0
            done;
            if !paylen = 0 then continue := false
            else begin
              let crc_off = !pos in
              let body_off = crc_off + 4 in
              (* Flip a spread of payload bytes; re-stamp the CRC. *)
              let step = max 1 (!paylen / 13) in
              let k = ref 0 in
              while !k < !paylen do
                let damaged =
                  flip (String.sub bytes 0 n) (body_off + !k) 0x11
                in
                let crc =
                  Aprof_util.Crc32c.digest_string damaged ~pos:body_off
                    ~len:!paylen
                in
                let restamped =
                  String.mapi
                    (fun j c ->
                      if j >= crc_off && j < body_off then
                        Char.chr ((crc lsr (8 * (j - crc_off))) land 0xff)
                      else c)
                    damaged
                in
                write_all file restamped;
                assert_no_crash
                  ~fault:
                    (Printf.sprintf
                       "v3 packed garbage at frame %d + %d (entropy %b)" p0 !k
                       entropy)
                  file;
                k := !k + step
              done;
              pos := body_off + !paylen
            end
          done))
    [ true; false ]

let v1_no_crash () =
  with_pristine ~format_version:1 (fun bytes file ->
      (* Pristine v1 must decode identically — the compat guarantee. *)
      write_all file bytes;
      (match strict_outcome ~fault:"pristine v1" file with
      | `Decoded (lines, names) ->
        Alcotest.(check bool) "pristine v1 decodes identically" true
          (List.equal String.equal lines ref_lines && names = ref_names)
      | `Clean_error -> Alcotest.fail "pristine v1 rejected");
      String.iteri
        (fun i _ ->
          write_all file (flip bytes i 0x01);
          assert_no_crash ~fault:(Printf.sprintf "v1 flip byte %d" i) file)
        bytes;
      for n = 0 to String.length bytes - 1 do
        write_all file (String.sub bytes 0 n);
        assert_no_crash ~fault:(Printf.sprintf "v1 truncate to %d" n) file
      done)

let enough_faults () =
  Alcotest.(check bool)
    (Printf.sprintf "at least 1000 faults injected (got %d)" !faults)
    true (!faults >= 1000)

let suite =
  [
    Alcotest.test_case "byte flips, indexed v2" `Quick byte_flips_v2;
    Alcotest.test_case "byte flips, index-less v2" `Quick
      byte_flips_v2_indexless;
    Alcotest.test_case "truncation at every offset" `Quick truncations_v2;
    Alcotest.test_case "duplicated/deleted/reordered chunks" `Quick
      frame_splices_v2;
    Alcotest.test_case "v1 faults never crash" `Quick v1_no_crash;
    Alcotest.test_case "byte flips, indexed v3" `Quick byte_flips_v3;
    Alcotest.test_case "truncation at every offset, v3" `Quick truncations_v3;
    Alcotest.test_case "duplicated/deleted/reordered chunks, v3" `Quick
      frame_splices_v3;
    Alcotest.test_case "packed garbage below the checksum never crashes"
      `Quick packed_garbage_no_crash;
    Alcotest.test_case "fault budget" `Quick enough_faults;
  ]
