(* Facade over the layered trace codec.  The layers, bottom up:

     {!Trace_wire}       varints, little-endian fields, [Decode_error]
     {!Trace_frame}      length + CRC32C framing of chunk payloads
     {!Trace_transform}  version-3 payload transforms (packing + entropy)
     {!Trace_record}     plain event records (versions 1 and 2)
     {!Trace_packed}     packed event coding (version 3)
     {!Trace_container}  header/version negotiation, ATRI shard index

   This module wires them into the public reader/writer surface and owns
   the policies that cut across layers: when chunks flush, how salvage
   re-synchronizes, and how the version dispatch picks an event layer.
   Formats 1 and 2 are byte-for-byte what the pre-split codec produced
   (pinned by the golden tests); format 3 reuses the v2 framing and
   index around transformed payloads. *)

module Vec = Aprof_util.Vec
module Crc32c = Aprof_util.Crc32c
module Batch = Event.Batch

let magic = Trace_container.magic
let version = Trace_container.version
let max_version = Trace_container.max_version
let default_chunk = Trace_frame.default_chunk
let max_chunk_payload = Trace_frame.max_chunk_payload
let index_magic = Trace_container.index_magic
let index_trailer_bytes = Trace_container.index_trailer_bytes
let bad = Trace_wire.bad
let read_uvarint = Trace_wire.read_uvarint
let uvarint_size = Trace_wire.uvarint_size
let end_tag = Trace_record.end_tag
let step_record = Trace_record.step_record
let fill_chunk = Trace_record.fill_chunk
let validate_batch = Trace_record.validate_batch
let fill_batch = Trace_record.fill_batch
let fill_batch_bytes = Trace_record.fill_batch_bytes
let parse_header = Trace_container.parse_header
let input_header = Trace_container.input_header
let default_routine_name = Trace_record.default_routine_name
let file_version ic =
  In_channel.seek ic 0L;
  input_header ic

(* A version-3 chunk also flushes on event count: repeat suppression can
   swallow millions of events into a few bytes, and an unbounded chunk
   would destroy the granularity the work-stealing replay shards by.
   The decode side caps how far one chunk may expand, bounding what a
   corrupt repeat count can make a reader allocate. *)
let v3_chunk_events = 1 lsl 16
let max_chunk_events = 1 lsl 27

(* ----- streaming writer ----------------------------------------------- *)

(* Version 3: events flow through the packed encoder; each flushed chunk
   is sealed by the transform layer and framed exactly like a version-2
   chunk, so the index entries describe the *stored* payload. *)
let batch_writer_v3 ~chunk_bytes ~index ~entropy ~routine_name oc =
  output_string oc magic;
  output_char oc (Char.chr 3);
  let enc = Trace_packed.create_encoder () in
  let defined = Hashtbl.create 64 in
  let chunks = ref [] in
  let events = ref 0 in
  let tag_mask = ref 0 in
  let tid_set : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let last_tid = ref min_int in
  let flush_chunk () =
    if !events > 0 then begin
      let tids =
        Hashtbl.fold (fun tid () acc -> tid :: acc) tid_set []
        |> List.sort compare |> Array.of_list
      in
      let packed = Trace_packed.take_chunk enc in
      let stored = Trace_transform.seal ~entropy packed in
      let crc = Trace_frame.output_frame oc stored in
      chunks :=
        {
          Trace_container.c_bytes = Bytes.length stored;
          c_events = !events;
          c_tag_mask = !tag_mask;
          c_crc = crc;
          c_tids = tids;
        }
        :: !chunks;
      events := 0;
      tag_mask := 0;
      Hashtbl.reset tid_set;
      last_tid := min_int
    end
  in
  let emit_batch b =
    Batch.iter
      (fun tag tid arg len ->
        if tag = Batch.tag_call && not (Hashtbl.mem defined arg) then begin
          Hashtbl.add defined arg ();
          Trace_packed.add_def enc arg (routine_name arg)
        end;
        Trace_packed.add_event enc ~tag ~tid ~arg ~len;
        incr events;
        tag_mask := !tag_mask lor (1 lsl tag);
        if tid <> !last_tid then begin
          last_tid := tid;
          Hashtbl.replace tid_set tid ()
        end;
        if
          Trace_packed.chunk_length enc >= chunk_bytes
          || !events >= v3_chunk_events
        then flush_chunk ())
      b
  in
  let close_batch () =
    flush_chunk ();
    let frame_bytes (c : Trace_container.chunk_entry) =
      uvarint_size c.c_bytes + 4 + c.c_bytes
    in
    let marker_off =
      5 + List.fold_left (fun a c -> a + frame_bytes c) 0 !chunks
    in
    output_char oc (Char.chr end_tag);
    if index then begin
      let footer_off = marker_off + 1 in
      let buf = Buffer.create 512 in
      Trace_container.add_footer buf ~format_version:3 (List.rev !chunks);
      Trace_wire.add_le64 buf footer_off;
      Buffer.add_string buf index_magic;
      Buffer.output_buffer oc buf
    end
  in
  { Trace_stream.emit_batch; close_batch }

let batch_writer ?(chunk_bytes = default_chunk) ?(index = true)
    ?(format_version = version) ?(entropy = false)
    ?(routine_name = default_routine_name) oc =
  Trace_container.check_format_version format_version;
  if format_version >= 3 then
    batch_writer_v3 ~chunk_bytes ~index ~entropy ~routine_name oc
  else begin
    (* The header goes straight to the channel so that the buffer — and
       therefore each recorded chunk length — holds record bytes only. *)
    output_string oc magic;
    output_char oc (Char.chr format_version);
    let buf = Buffer.create (chunk_bytes + 256) in
    let encode = Trace_record.encoder buf ~routine_name in
    (* Per-chunk stats for the index.  The last-tid cache keeps the table
       lookup off the hot path: consecutive events of one thread are the
       overwhelmingly common case. *)
    let chunks = ref [] in
    let events = ref 0 in
    let tag_mask = ref 0 in
    let tid_set : (int, unit) Hashtbl.t = Hashtbl.create 8 in
    let last_tid = ref min_int in
    let flush_chunk () =
      if Buffer.length buf > 0 then begin
        let tids =
          Hashtbl.fold (fun tid () acc -> tid :: acc) tid_set []
          |> List.sort compare |> Array.of_list
        in
        let payload = Buffer.to_bytes buf in
        let nbytes = Bytes.length payload in
        let crc =
          if format_version >= 2 then Crc32c.digest payload ~pos:0 ~len:nbytes
          else -1
        in
        chunks :=
          {
            Trace_container.c_bytes = nbytes;
            c_events = !events;
            c_tag_mask = !tag_mask;
            c_crc = crc;
            c_tids = tids;
          }
          :: !chunks;
        events := 0;
        tag_mask := 0;
        Hashtbl.reset tid_set;
        last_tid := min_int;
        if format_version >= 2 then begin
          Trace_wire.output_uvarint oc nbytes;
          Trace_wire.output_le32 oc crc
        end;
        output_bytes oc payload;
        Buffer.clear buf
      end
    in
    let emit_batch b =
      Batch.iter
        (fun tag tid arg len ->
          encode tag tid arg len;
          incr events;
          tag_mask := !tag_mask lor (1 lsl tag);
          if tid <> !last_tid then begin
            last_tid := tid;
            Hashtbl.replace tid_set tid ()
          end;
          if Buffer.length buf >= chunk_bytes then flush_chunk ())
        b
    in
    let close_batch () =
      flush_chunk ();
      (* Chunk [i]'s payload starts at [5 + earlier frames]; a version-2
         frame adds a length varint and a 4-byte CRC before the payload. *)
      let frame_bytes (c : Trace_container.chunk_entry) =
        if format_version >= 2 then uvarint_size c.c_bytes + 4 + c.c_bytes
        else c.c_bytes
      in
      let marker_off =
        5 + List.fold_left (fun a c -> a + frame_bytes c) 0 !chunks
      in
      output_char oc (Char.chr end_tag);
      if index then begin
        let footer_off = marker_off + 1 in
        Trace_container.add_footer buf ~format_version (List.rev !chunks);
        Trace_wire.add_le64 buf footer_off;
        Buffer.add_string buf index_magic;
        Buffer.output_buffer oc buf;
        Buffer.clear buf
      end
    in
    { Trace_stream.emit_batch; close_batch }
  end

let writer ?chunk_bytes ?index ?format_version ?entropy ?routine_name oc =
  Trace_stream.sink_of_batches
    (batch_writer ?chunk_bytes ?index ?format_version ?entropy ?routine_name
       oc)

(* ----- streaming reader ----------------------------------------------- *)

(* Version 1: a bare record stream read through a sliding window of
   [chunk_bytes]; nothing in the format marks the writer's flush
   boundaries, so the window is just an I/O buffer. *)
let batch_reader_v1 ~chunk_bytes ~batch_size ic =
  let chunk = Bytes.create (max 1 chunk_bytes) in
  let pos = ref 0 in
  let len = ref 0 in
  let refill () =
    len := In_channel.input ic chunk 0 (Bytes.length chunk);
    pos := 0
  in
  let read_byte () =
    if !pos >= !len then refill ();
    if !len = 0 then -1
    else begin
      let b = Char.code (Bytes.unsafe_get chunk !pos) in
      incr pos;
      b
    end
  in
  let read_string n =
    let b = Bytes.create n in
    let filled = ref 0 in
    while !filled < n do
      if !pos >= !len then begin
        refill ();
        if !len = 0 then bad "truncated name"
      end;
      let take = min (n - !filled) (!len - !pos) in
      Bytes.blit chunk !pos b !filled take;
      pos := !pos + take;
      filled := !filled + take
    done;
    Bytes.unsafe_to_string b
  in
  let names = Hashtbl.create 64 in
  let define id name = Hashtbl.replace names id name in
  let b = Batch.create ~capacity:batch_size () in
  let finished = ref false in
  let fill () =
    Batch.clear b;
    let fin = ref false in
    while (not !fin) && not (Batch.is_full b) do
      fill_batch_bytes b chunk pos !len;
      if not (Batch.is_full b) then
        fin := step_record ~read_byte ~read_string ~define b
    done;
    validate_batch b;
    !fin
  in
  ( names,
    fun () ->
      if !finished then None
      else begin
        finished := fill ();
        if Batch.is_empty b then None else Some b
      end )

(* Version 2: the stream is a sequence of length-prefixed, checksummed
   frames.  Each frame's payload is read whole and verified against its
   CRC32C *before* any record decoding, so the [unsafe_get] fast path
   never runs over corrupt bytes; records never span frames. *)
let batch_reader_v2 ~batch_size ic =
  let names = Hashtbl.create 64 in
  let define id name = Hashtbl.replace names id name in
  let b = Batch.create ~capacity:batch_size () in
  let chunk = ref Bytes.empty in
  let pos = ref 0 in
  let len = ref 0 in
  let file_off = ref 5 in
  let ordinal = ref (-1) in
  let frames_done = ref false in
  (* (payload bytes, crc) of every frame streamed so far, newest first:
     cross-checked against the index footer at the end of the trace. *)
  let frames = ref [] in
  let input_byte () =
    match In_channel.input_byte ic with
    | Some c ->
      incr file_off;
      c
    | None -> -1
  in
  (* Pull the next frame into [chunk]; false once the marker is seen. *)
  let advance () =
    let frame_off = !file_off in
    let paylen =
      try read_uvarint input_byte
      with Trace_stream.Decode_error _ when !file_off = frame_off ->
        bad "truncated trace (missing end-of-trace marker)"
    in
    if paylen = 0 then begin
      Trace_container.check_streamed_footer ~trace_version:2 ~input_byte
        ~footer_off:!file_off ~frames:(List.rev !frames);
      frames_done := true;
      false
    end
    else begin
      if paylen > max_chunk_payload then
        bad "chunk %d at byte %d: implausible length %d" (!ordinal + 1)
          frame_off paylen;
      let stored = ref 0 in
      for i = 0 to 3 do
        match input_byte () with
        | -1 ->
          bad "chunk %d at byte %d: truncated header" (!ordinal + 1) frame_off
        | c -> stored := !stored lor (c lsl (8 * i))
      done;
      if Bytes.length !chunk < paylen then chunk := Bytes.create paylen;
      (try really_input ic !chunk 0 paylen
       with End_of_file ->
         bad "chunk %d at byte %d: truncated payload" (!ordinal + 1) frame_off);
      file_off := !file_off + paylen;
      incr ordinal;
      let computed = Crc32c.digest !chunk ~pos:0 ~len:paylen in
      if computed <> !stored then
        bad
          "chunk %d at byte %d: checksum mismatch (stored %08x, computed %08x)"
          !ordinal frame_off !stored computed;
      frames := (paylen, !stored) :: !frames;
      pos := 0;
      len := paylen;
      true
    end
  in
  let fill () =
    Batch.clear b;
    let fin = ref false in
    while (not !fin) && not (Batch.is_full b) do
      if !pos >= !len then begin
        if !frames_done || not (advance ()) then fin := true
      end
      else ignore (fill_chunk ~define b !chunk pos !len)
    done;
    validate_batch b;
    !fin
  in
  let finished = ref false in
  ( names,
    fun () ->
      if !finished then None
      else begin
        finished := fill ();
        if Batch.is_empty b then None else Some b
      end )

(* Version 3: same frame walk as version 2, but each verified payload is
   opened by the transform layer and decoded by the packed event layer,
   which keeps its own cursor — the fill loop just alternates between
   "drain the open chunk into the batch" and "advance to the next
   frame". *)
let batch_reader_v3 ~batch_size ic =
  let names = Hashtbl.create 64 in
  let define id name = Hashtbl.replace names id name in
  let b = Batch.create ~capacity:(max batch_size Trace_packed.pat_kmax) () in
  let dec = Trace_packed.create_decoder () in
  let scratch = ref Bytes.empty in
  let chunk = ref Bytes.empty in
  let file_off = ref 5 in
  let ordinal = ref (-1) in
  let frames_done = ref false in
  let chunk_active = ref false in
  let frames = ref [] in
  let input_byte () =
    match In_channel.input_byte ic with
    | Some c ->
      incr file_off;
      c
    | None -> -1
  in
  let advance () =
    let frame_off = !file_off in
    let paylen =
      try read_uvarint input_byte
      with Trace_stream.Decode_error _ when !file_off = frame_off ->
        bad "truncated trace (missing end-of-trace marker)"
    in
    if paylen = 0 then begin
      Trace_container.check_streamed_footer ~trace_version:3 ~input_byte
        ~footer_off:!file_off ~frames:(List.rev !frames);
      frames_done := true;
      false
    end
    else begin
      if paylen > max_chunk_payload then
        bad "chunk %d at byte %d: implausible length %d" (!ordinal + 1)
          frame_off paylen;
      let stored = ref 0 in
      for i = 0 to 3 do
        match input_byte () with
        | -1 ->
          bad "chunk %d at byte %d: truncated header" (!ordinal + 1) frame_off
        | c -> stored := !stored lor (c lsl (8 * i))
      done;
      if Bytes.length !chunk < paylen then chunk := Bytes.create paylen;
      (try really_input ic !chunk 0 paylen
       with End_of_file ->
         bad "chunk %d at byte %d: truncated payload" (!ordinal + 1) frame_off);
      file_off := !file_off + paylen;
      incr ordinal;
      let computed = Crc32c.digest !chunk ~pos:0 ~len:paylen in
      if computed <> !stored then
        bad
          "chunk %d at byte %d: checksum mismatch (stored %08x, computed %08x)"
          !ordinal frame_off !stored computed;
      frames := (paylen, !stored) :: !frames;
      let pbuf, ppos, plen =
        Trace_transform.open_payload !chunk ~pos:0 ~len:paylen ~scratch
      in
      Trace_packed.start_chunk dec pbuf ~pos:ppos ~len:plen;
      chunk_active := true;
      true
    end
  in
  let fill () =
    Batch.clear b;
    let fin = ref false in
    let full = ref false in
    while (not !fin) && not !full do
      if !chunk_active then begin
        if Trace_packed.fill dec ~define b then chunk_active := false
        else full := true
      end
      else if !frames_done || not (advance ()) then fin := true
    done;
    validate_batch b;
    !fin
  in
  let finished = ref false in
  ( names,
    fun () ->
      if !finished then None
      else begin
        finished := fill ();
        if Batch.is_empty b then None else Some b
      end )

let batch_reader ?(chunk_bytes = default_chunk)
    ?(batch_size = Batch.default_capacity) ic =
  match input_header ic with
  | 1 -> batch_reader_v1 ~chunk_bytes ~batch_size ic
  | 2 -> batch_reader_v2 ~batch_size ic
  | _ -> batch_reader_v3 ~batch_size ic

let reader ?chunk_bytes ic =
  let names, batches = batch_reader ?chunk_bytes ic in
  (names, Trace_stream.events_of_batches batches)

(* ----- shard index ----------------------------------------------------- *)

type shard = Trace_container.shard = {
  offset : int;
  bytes : int;
  events : int;
  tag_mask : int;
  crc : int;
  tids : int array;
}

let shards = Trace_container.shards

(* Version <= 2 seeking reader over an explicit chunk list. *)
let sharded_reader_v2 ~path ~batch_size ic shs ~select =
  let names = Hashtbl.create 64 in
  let define id name = Hashtbl.replace names id name in
  let b = Batch.create ~capacity:batch_size () in
  let remaining = ref (List.filter select (Array.to_list shs)) in
  let chunk = ref Bytes.empty in
  let pos = ref 0 in
  let len = ref 0 in
  let advance () =
    match !remaining with
    | [] -> false
    | sh :: rest ->
      remaining := rest;
      In_channel.seek ic (Int64.of_int sh.offset);
      let c = Bytes.create sh.bytes in
      (try really_input ic c 0 sh.bytes
       with End_of_file ->
         bad "cannot replay %s: chunk at byte %d truncated" path sh.offset);
      (* Verify before decoding: the fast path trusts these bytes. *)
      if sh.crc >= 0 then begin
        let computed = Crc32c.digest c ~pos:0 ~len:sh.bytes in
        if computed <> sh.crc then
          bad
            "cannot replay %s: chunk at byte %d: checksum mismatch (stored \
             %08x, computed %08x)"
            path sh.offset sh.crc computed
      end;
      chunk := c;
      pos := 0;
      len := sh.bytes;
      true
  in
  let fill () =
    Batch.clear b;
    let fin = ref false in
    while (not !fin) && not (Batch.is_full b) do
      if !pos >= !len then begin
        if not (advance ()) then fin := true
      end
      else ignore (fill_chunk ~define b !chunk pos !len)
    done;
    validate_batch b;
    !fin
  in
  let finished = ref false in
  ( names,
    fun () ->
      if !finished then None
      else begin
        finished := fill ();
        if Batch.is_empty b then None else Some b
      end )

(* Version 3 twin: payloads go through the transform layer and the
   packed decoder between the seek and the batch. *)
let sharded_reader_v3 ~path ~batch_size ic shs ~select =
  let names = Hashtbl.create 64 in
  let define id name = Hashtbl.replace names id name in
  let b = Batch.create ~capacity:(max batch_size Trace_packed.pat_kmax) () in
  let dec = Trace_packed.create_decoder () in
  let scratch = ref Bytes.empty in
  let remaining = ref (List.filter select (Array.to_list shs)) in
  let chunk_active = ref false in
  let advance () =
    match !remaining with
    | [] -> false
    | sh :: rest ->
      remaining := rest;
      In_channel.seek ic (Int64.of_int sh.offset);
      let c = Bytes.create sh.bytes in
      (try really_input ic c 0 sh.bytes
       with End_of_file ->
         bad "cannot replay %s: chunk at byte %d truncated" path sh.offset);
      if sh.crc >= 0 then begin
        let computed = Crc32c.digest c ~pos:0 ~len:sh.bytes in
        if computed <> sh.crc then
          bad
            "cannot replay %s: chunk at byte %d: checksum mismatch (stored \
             %08x, computed %08x)"
            path sh.offset sh.crc computed
      end;
      let pbuf, ppos, plen =
        Trace_transform.open_payload c ~pos:0 ~len:sh.bytes ~scratch
      in
      Trace_packed.start_chunk dec pbuf ~pos:ppos ~len:plen;
      chunk_active := true;
      true
  in
  let fill () =
    Batch.clear b;
    let fin = ref false in
    let full = ref false in
    while (not !fin) && not !full do
      if !chunk_active then begin
        if Trace_packed.fill dec ~define b then chunk_active := false
        else full := true
      end
      else if not (advance ()) then fin := true
    done;
    validate_batch b;
    !fin
  in
  let finished = ref false in
  ( names,
    fun () ->
      if !finished then None
      else begin
        finished := fill ();
        if Batch.is_empty b then None else Some b
      end )

let sharded_reader ?(path = "trace") ?(batch_size = Batch.default_capacity) ic
    shs ~select =
  let trace_version = file_version ic in
  if trace_version >= 3 then sharded_reader_v3 ~path ~batch_size ic shs ~select
  else sharded_reader_v2 ~path ~batch_size ic shs ~select

let seek_chunk ?path ?batch_size ic sh =
  sharded_reader ?path ?batch_size ic [| sh |] ~select:(fun _ -> true)

(* [sharded_reader] with the chunk list supplied one chunk at a time,
   and the batch / byte buffer / name table reused across chunks: the
   work-stealing engine does not know its chunk sequence up front, and a
   fresh seek_chunk per claimed chunk would re-allocate all three. *)
let chunk_session_v2 ~batch_size ?keep ic =
  let names = Hashtbl.create 64 in
  let define id name = Hashtbl.replace names id name in
  let b = Batch.create ~capacity:batch_size () in
  let buf = ref Bytes.empty in
  let pos = ref 0 in
  let len = ref 0 in
  let fill () =
    Batch.clear b;
    let fin = fill_chunk ?keep ~define b !buf pos !len in
    validate_batch b;
    fin
  in
  let read (sh : shard) =
    if Bytes.length !buf < sh.bytes then buf := Bytes.create sh.bytes;
    In_channel.seek ic (Int64.of_int sh.offset);
    (try really_input ic !buf 0 sh.bytes
     with End_of_file -> bad "chunk at byte %d truncated" sh.offset);
    if sh.crc >= 0 then begin
      let computed = Crc32c.digest !buf ~pos:0 ~len:sh.bytes in
      if computed <> sh.crc then
        bad "chunk at byte %d: checksum mismatch (stored %08x, computed %08x)"
          sh.offset sh.crc computed
    end;
    pos := 0;
    len := sh.bytes;
    let finished = ref false in
    fun () ->
      if !finished then None
      else begin
        finished := fill ();
        if Batch.is_empty b then None else Some b
      end
  in
  (names, read)

let chunk_session_v3 ~batch_size ?keep ic =
  let names = Hashtbl.create 64 in
  let define id name = Hashtbl.replace names id name in
  let b = Batch.create ~capacity:(max batch_size Trace_packed.pat_kmax) () in
  let dec = Trace_packed.create_decoder () in
  let scratch = ref Bytes.empty in
  let buf = ref Bytes.empty in
  let read (sh : shard) =
    if Bytes.length !buf < sh.bytes then buf := Bytes.create sh.bytes;
    In_channel.seek ic (Int64.of_int sh.offset);
    (try really_input ic !buf 0 sh.bytes
     with End_of_file -> bad "chunk at byte %d truncated" sh.offset);
    if sh.crc >= 0 then begin
      let computed = Crc32c.digest !buf ~pos:0 ~len:sh.bytes in
      if computed <> sh.crc then
        bad "chunk at byte %d: checksum mismatch (stored %08x, computed %08x)"
          sh.offset sh.crc computed
    end;
    let pbuf, ppos, plen =
      Trace_transform.open_payload !buf ~pos:0 ~len:sh.bytes ~scratch
    in
    Trace_packed.start_chunk dec pbuf ~pos:ppos ~len:plen;
    let finished = ref false in
    fun () ->
      if !finished then None
      else begin
        Batch.clear b;
        finished := Trace_packed.fill dec ?keep ~define b;
        validate_batch b;
        if Batch.is_empty b then None else Some b
      end
  in
  (names, read)

let chunk_session ?(batch_size = Batch.default_capacity) ?keep ic =
  let trace_version = file_version ic in
  if trace_version >= 3 then chunk_session_v3 ~batch_size ?keep ic
  else chunk_session_v2 ~batch_size ?keep ic

(* ----- salvage reader -------------------------------------------------- *)

type drop = {
  drop_chunk : int;
  drop_offset : int;
  drop_bytes : int;
  drop_events : int;
  drop_reason : string;
}

(* Decode the whole plain payload [chunk[0..n)] into [stage] (grown to
   hold every possible record: the smallest event record is two bytes),
   so a chunk is delivered all-or-nothing.  Definitions are staged into
   [defs] and only committed by the caller once the chunk decodes
   cleanly.  Raises [Decode_error] on any malformation. *)
let decode_whole_chunk ~stage ~defs chunk n =
  let need = (n / 2) + 1 in
  if Batch.capacity !stage < need then stage := Batch.create ~capacity:need ();
  let b = !stage in
  Batch.clear b;
  let define id name = defs := (id, name) :: !defs in
  (* The stage holds every record, so one fill drains the chunk. *)
  ignore (fill_chunk ~define b chunk (ref 0) n);
  validate_batch b;
  b

(* Version-3 twin: open the transform envelope, then drain the packed
   decoder into [stage], doubling it as repeats expand — up to a hard
   cap, so a corrupt repeat count cannot make salvage allocate without
   bound. *)
let decode_whole_chunk_v3 ~dec ~scratch ~stage ~defs ~events_hint chunk n =
  let pbuf, ppos, plen =
    Trace_transform.open_payload chunk ~pos:0 ~len:n ~scratch
  in
  Trace_packed.start_chunk dec pbuf ~pos:ppos ~len:plen;
  let want =
    if events_hint > 0 then min events_hint max_chunk_events else 1024
  in
  if Batch.capacity !stage < max want 1024 then
    stage := Batch.create ~capacity:(max want 1024) ();
  Batch.clear !stage;
  let define id name = defs := (id, name) :: !defs in
  let fin = ref false in
  while not !fin do
    if Trace_packed.fill dec ~define !stage then fin := true
    else begin
      let b = !stage in
      let cap = Batch.capacity b in
      if cap >= max_chunk_events then
        bad "packed chunk decodes to more than %d events" max_chunk_events;
      let grown =
        Batch.create ~capacity:(min (2 * cap) max_chunk_events) ()
      in
      let len = Batch.length b in
      Array.blit (Batch.tags b) 0 (Batch.tags grown) 0 len;
      Array.blit (Batch.tids b) 0 (Batch.tids grown) 0 len;
      Array.blit (Batch.args b) 0 (Batch.args grown) 0 len;
      Array.blit (Batch.lens b) 0 (Batch.lens grown) 0 len;
      Batch.unsafe_set_length grown len;
      stage := grown
    end
  done;
  validate_batch !stage;
  !stage

(* [decode ~defs chunk n ~events_hint] closures bind the right event
   layer (and its reusable buffers) for the trace version being
   salvaged. *)
let v2_chunk_decoder () =
  let stage = ref (Batch.create ~capacity:1024 ()) in
  fun ~defs chunk n ~events_hint:_ -> decode_whole_chunk ~stage ~defs chunk n

let v3_chunk_decoder () =
  let dec = Trace_packed.create_decoder () in
  let scratch = ref Bytes.empty in
  let stage = ref (Batch.create ~capacity:1024 ()) in
  fun ~defs chunk n ~events_hint ->
    decode_whole_chunk_v3 ~dec ~scratch ~stage ~defs ~events_hint chunk n

(* The whole-chunk decoders, exported for consumers that receive framed
   chunks from somewhere other than a seekable file — the socket-fed
   reader ({!Trace_net}) in salvage mode hands each CRC-verified payload
   to one of these. *)
let chunk_decoder ~version () =
  if version >= 3 then v3_chunk_decoder () else v2_chunk_decoder ()

(* Salvage over a usable index: every chunk's boundaries are known, so a
   corrupt chunk is skipped exactly and the next one re-synchronizes the
   stream.  The footer's own CRC (version >= 2) is authoritative; on
   version-1 files detection falls back to decode errors and the
   index's event count. *)
let salvage_indexed ~report ~decode ic shs =
  let names = Hashtbl.create 64 in
  let buf = ref Bytes.empty in
  let idx = ref 0 in
  let rec next () =
    if !idx >= Array.length shs then None
    else begin
      let ordinal = !idx in
      let sh = shs.(ordinal) in
      incr idx;
      let drop reason =
        report
          {
            drop_chunk = ordinal;
            drop_offset = sh.offset;
            drop_bytes = sh.bytes;
            drop_events = sh.events;
            drop_reason = reason;
          };
        next ()
      in
      In_channel.seek ic (Int64.of_int sh.offset);
      if Bytes.length !buf < sh.bytes then buf := Bytes.create sh.bytes;
      match really_input ic !buf 0 sh.bytes with
      | exception End_of_file -> drop "chunk truncated"
      | () ->
        let checksum_ok =
          sh.crc < 0 || Crc32c.digest !buf ~pos:0 ~len:sh.bytes = sh.crc
        in
        if not checksum_ok then
          drop
            (Printf.sprintf "checksum mismatch (stored %08x, computed %08x)"
               sh.crc
               (Crc32c.digest !buf ~pos:0 ~len:sh.bytes))
        else begin
          let defs = ref [] in
          match decode ~defs !buf sh.bytes ~events_hint:sh.events with
          | exception Trace_stream.Decode_error msg -> drop msg
          | b ->
            if Batch.length b <> sh.events then
              drop
                (Printf.sprintf "decoded %d events where the index says %d"
                   (Batch.length b) sh.events)
            else begin
              List.iter
                (fun (id, name) -> Hashtbl.replace names id name)
                (List.rev !defs);
              Some b
            end
        end
    end
  in
  (names, next)

(* Salvage without an index, version >= 2: the frames are
   self-delimiting, so a checksum or payload failure inside a frame
   skips exactly that frame.  Once the framing itself breaks (a corrupt
   length, a truncated payload) there is no boundary left to
   re-synchronize on: the rest of the file is reported as a single
   terminal drop. *)
let salvage_frames ~report ~decode ic =
  In_channel.seek ic 5L;
  let names = Hashtbl.create 64 in
  let buf = ref Bytes.empty in
  let file_off = ref 5 in
  let ordinal = ref (-1) in
  let finished = ref false in
  let input_byte () =
    match In_channel.input_byte ic with
    | Some c ->
      incr file_off;
      c
    | None -> -1
  in
  let terminal offset reason =
    finished := true;
    report
      {
        drop_chunk = !ordinal + 1;
        drop_offset = offset;
        drop_bytes = -1;
        drop_events = -1;
        drop_reason = reason;
      };
    None
  in
  let rec next () =
    if !finished then None
    else begin
      let frame_off = !file_off in
      match read_uvarint input_byte with
      | exception Trace_stream.Decode_error msg -> terminal frame_off msg
      | 0 ->
        finished := true;
        (* Trailing bytes after the marker are the footer (already known
           to be unusable, or absent) — nothing left to salvage. *)
        None
      | paylen when paylen > max_chunk_payload ->
        terminal frame_off (Printf.sprintf "implausible chunk length %d" paylen)
      | paylen -> (
        let stored = ref 0 in
        let truncated = ref false in
        for i = 0 to 3 do
          match input_byte () with
          | -1 -> truncated := true
          | c -> stored := !stored lor (c lsl (8 * i))
        done;
        if !truncated then terminal frame_off "truncated chunk header"
        else begin
          if Bytes.length !buf < paylen then buf := Bytes.create paylen;
          match really_input ic !buf 0 paylen with
          | exception End_of_file -> terminal frame_off "truncated payload"
          | () ->
            file_off := !file_off + paylen;
            incr ordinal;
            let skip reason =
              report
                {
                  drop_chunk = !ordinal;
                  drop_offset = frame_off;
                  drop_bytes = paylen;
                  drop_events = -1;
                  drop_reason = reason;
                };
              next ()
            in
            let computed = Crc32c.digest !buf ~pos:0 ~len:paylen in
            if computed <> !stored then
              skip
                (Printf.sprintf
                   "checksum mismatch (stored %08x, computed %08x)" !stored
                   computed)
            else begin
              let defs = ref [] in
              match decode ~defs !buf paylen ~events_hint:(-1) with
              | exception Trace_stream.Decode_error msg -> skip msg
              | b ->
                List.iter
                  (fun (id, name) -> Hashtbl.replace names id name)
                  (List.rev !defs);
                Some b
            end
        end)
    end
  in
  (names, next)

(* Salvage of a version-1 stream without an index: there are no chunk
   boundaries to re-synchronize on, so the first malformation drops the
   rest of the file as one terminal region.  Batches delivered before
   the failure stand. *)
let salvage_v1_stream ~report ~chunk_bytes ~batch_size ic =
  In_channel.seek ic 5L;
  let names, src = batch_reader_v1 ~chunk_bytes ~batch_size ic in
  let finished = ref false in
  ( names,
    fun () ->
      if !finished then None
      else
        match src () with
        | batch -> batch
        | exception Trace_stream.Decode_error msg ->
          finished := true;
          report
            {
              drop_chunk = -1;
              drop_offset = -1;
              drop_bytes = -1;
              drop_events = -1;
              drop_reason = msg;
            };
          None )

let read ?(chunk_bytes = default_chunk) ?(batch_size = Batch.default_capacity)
    ?path ~on_corrupt ic =
  match on_corrupt with
  | `Fail -> batch_reader ~chunk_bytes ~batch_size ic
  | `Skip report -> (
    let trace_version = input_header ic in
    let total = Int64.to_int (In_channel.length ic) in
    let has_trailer =
      total >= 5 + 1 + 6 + index_trailer_bytes
      && begin
           In_channel.seek ic (Int64.of_int (total - 4));
           match really_input_string ic 4 with
           | s -> s = index_magic
           | exception End_of_file -> false
         end
    in
    let decode =
      if trace_version >= 3 then v3_chunk_decoder () else v2_chunk_decoder ()
    in
    if has_trailer then
      (* The trailer promises an index; it is the authority on chunk
         boundaries, so an unreadable footer is fatal even in salvage
         mode — without trusted boundaries a skip could deliver
         re-framed garbage as events. *)
      match shards ?path ic with
      | Some shs -> salvage_indexed ~report ~decode ic shs
      | None ->
        bad "cannot salvage %s: trailer present but index unreadable"
          (Option.value path ~default:"trace")
    else if trace_version >= 2 then salvage_frames ~report ~decode ic
    else salvage_v1_stream ~report ~chunk_bytes ~batch_size ic)

(* ----- whole-trace convenience ---------------------------------------- *)

let to_string ?(format_version = version) ?(entropy = false)
    ?(routine_name = default_routine_name) (tr : Event.t Vec.t) =
  Trace_container.check_format_version format_version;
  if format_version >= 3 then begin
    let out = Buffer.create (16 + (4 * Vec.length tr)) in
    Buffer.add_string out magic;
    Buffer.add_char out (Char.chr 3);
    let enc = Trace_packed.create_encoder () in
    let defined = Hashtbl.create 64 in
    let events = ref 0 in
    let flush_frame () =
      if !events > 0 then begin
        let packed = Trace_packed.take_chunk enc in
        let stored = Trace_transform.seal ~entropy packed in
        Trace_frame.add_frame out (Bytes.unsafe_to_string stored);
        events := 0
      end
    in
    let batches = Trace_stream.batches_of_trace tr in
    let rec loop () =
      match batches () with
      | None -> ()
      | Some b ->
        Batch.iter
          (fun tag tid arg len ->
            if tag = Batch.tag_call && not (Hashtbl.mem defined arg) then begin
              Hashtbl.add defined arg ();
              Trace_packed.add_def enc arg (routine_name arg)
            end;
            Trace_packed.add_event enc ~tag ~tid ~arg ~len;
            incr events;
            if
              Trace_packed.chunk_length enc >= default_chunk
              || !events >= v3_chunk_events
            then flush_frame ())
          b;
        loop ()
    in
    loop ();
    flush_frame ();
    Buffer.add_char out (Char.chr end_tag);
    Buffer.contents out
  end
  else begin
    let out = Buffer.create (16 + (4 * Vec.length tr)) in
    Buffer.add_string out magic;
    Buffer.add_char out (Char.chr format_version);
    let buf = Buffer.create 4096 in
    let encode = Trace_record.encoder buf ~routine_name in
    let flush_frame () =
      if format_version >= 2 && Buffer.length buf > 0 then begin
        let payload = Buffer.contents buf in
        Trace_frame.add_frame out payload;
        Buffer.clear buf
      end
    in
    let batches = Trace_stream.batches_of_trace tr in
    let rec loop () =
      match batches () with
      | None -> ()
      | Some b ->
        Batch.iter
          (fun tag tid arg len ->
            encode tag tid arg len;
            if Buffer.length buf >= default_chunk then flush_frame ())
          b;
        loop ()
    in
    loop ();
    if format_version >= 2 then flush_frame () else Buffer.add_buffer out buf;
    Buffer.add_char out (Char.chr end_tag);
    Buffer.contents out
  end

let of_string_v1 s =
  let pos = ref 5 in
  let read_byte () =
    if !pos >= String.length s then -1
    else begin
      let b = Char.code (String.unsafe_get s !pos) in
      incr pos;
      b
    end
  in
  let read_string n =
    if !pos + n > String.length s then bad "truncated name";
    let sub = String.sub s !pos n in
    pos := !pos + n;
    sub
  in
  let names = ref [] in
  let define id name = names := (id, name) :: !names in
  let out = Vec.create () in
  let b = Batch.create () in
  let finished = ref false in
  while not !finished do
    Batch.clear b;
    finished := fill_batch ~read_byte ~read_string ~define b;
    Batch.iter_events (Vec.push out) b
  done;
  (out, List.rev !names)

let of_string_framed ~decode s =
  let total = String.length s in
  let pos = ref 5 in
  let read_byte () =
    if !pos >= total then -1
    else begin
      let b = Char.code (String.unsafe_get s !pos) in
      incr pos;
      b
    end
  in
  let names = ref [] in
  let out = Vec.create () in
  let finished = ref false in
  while not !finished do
    let frame_off = !pos in
    match read_uvarint read_byte with
    | exception Trace_stream.Decode_error _ when !pos = frame_off ->
      bad "truncated trace (missing end-of-trace marker)"
    | 0 ->
      (* End marker; accept end of input or a skipped footer. *)
      (match read_byte () with
      | -1 -> ()
      | c when c = Char.code index_magic.[0] ->
        for i = 1 to 3 do
          if read_byte () <> Char.code index_magic.[i] then
            bad "trailing data after end-of-trace marker"
        done;
        pos := total
      | _ -> bad "trailing data after end-of-trace marker");
      finished := true
    | paylen ->
      if paylen > max_chunk_payload then
        bad "chunk at byte %d: implausible length %d" frame_off paylen;
      if !pos + 4 + paylen > total then
        bad "chunk at byte %d: truncated" frame_off;
      let stored = ref 0 in
      for i = 0 to 3 do
        stored := !stored lor (Char.code s.[!pos + i] lsl (8 * i))
      done;
      pos := !pos + 4;
      let computed = Crc32c.digest_string s ~pos:!pos ~len:paylen in
      if computed <> !stored then
        bad "chunk at byte %d: checksum mismatch (stored %08x, computed %08x)"
          frame_off !stored computed;
      let defs = ref [] in
      let b =
        decode ~defs
          (Bytes.unsafe_of_string (String.sub s !pos paylen))
          paylen ~events_hint:(-1)
      in
      pos := !pos + paylen;
      (* [!defs] is newest-first within the chunk; prepending keeps the
         whole accumulator newest-first, undone by the final [rev]. *)
      names := !defs @ !names;
      Batch.iter_events (Vec.push out) b
  done;
  (out, List.rev !names)

let of_string s =
  try
    match parse_header s with
    | 1 -> Ok (of_string_v1 s)
    | 2 -> Ok (of_string_framed ~decode:(v2_chunk_decoder ()) s)
    | _ -> Ok (of_string_framed ~decode:(v3_chunk_decoder ()) s)
  with Trace_stream.Decode_error msg -> Error msg

let detect ic =
  let start = In_channel.pos ic in
  let head = really_input_string ic (min 4 (String.length magic)) in
  In_channel.seek ic start;
  if head = magic then `Binary else `Text

let detect ic = try detect ic with End_of_file -> `Text
