(* The one ATRC writer, over the layered trace codec.  The layers,
   bottom up:

     {!Trace_wire}       varints, little-endian fields, [Decode_error]
     {!Trace_frame}      length + CRC32C framing of chunk payloads
     {!Trace_transform}  version-3 payload transforms (packing + entropy)
     {!Trace_record}     plain event records (versions 1 and 2)
     {!Trace_packed}     packed event coding (version 3)
     {!Trace_chunk}      the one payload decoder: a per-version cursor
     {!Trace_container}  header/version negotiation, ATRI shard index
     {!Trace_net}        the one stream decoder: headers, frames, v1
                         records, end markers, footers, salvage

   This module owns the writer — one encode loop for every version, into
   a channel or a string — and wires the readers as thin drivers:
   channels and strings feed {!Trace_net} as a connection does, and the
   seek paths (chunk sessions, indexed salvage) drive the chunk cursor
   directly.  Every reader pushes its batches into a callback.
   The version difference lives in one place on each side: the chunk
   encoder below and the chunk cursor.  Formats 1 and 2 are
   byte-for-byte what the pre-split codec produced (pinned by the golden
   tests); format 3 reuses the v2 framing and index around transformed
   payloads. *)

module Batch = Event.Batch

let magic = Trace_container.magic
let version = Trace_container.version
let max_version = Trace_container.max_version
let default_chunk = Trace_frame.default_chunk
let max_chunk_payload = Trace_frame.max_chunk_payload
let bad = Trace_wire.bad
let end_tag = Trace_record.end_tag
let validate_batch = Trace_record.validate_batch
let input_header = Trace_container.input_header
let default_routine_name = Trace_record.default_routine_name
let file_version ic =
  In_channel.seek ic 0L;
  input_header ic

(* ----- the writer ------------------------------------------------------ *)

(* The chunk encoder, the write-side twin of the chunk cursor
   ({!Trace_chunk}): plain records for versions 1 and 2, packed events
   sealed by the transform layer for version 3.  [add] encodes one event,
   interning routine names (a definition precedes each routine's first
   [Call]), and returns the open chunk's size so far; [take] returns the
   chunk's stored payload and opens the next. *)
type chunk_encoder = {
  add : int -> int -> int -> int -> int;
  take : unit -> string;
}

let chunk_encoder ~format_version ~entropy ~routine_name =
  if format_version < 3 then begin
    let buf = Buffer.create 4096 in
    {
      add = Trace_record.encoder buf ~routine_name;
      take =
        (fun () ->
          let payload = Buffer.contents buf in
          Buffer.clear buf;
          payload);
    }
  end
  else begin
    let enc = Trace_packed.create_encoder () in
    let defined = Hashtbl.create 64 in
    {
      add =
        (fun tag tid arg len ->
          if tag = Batch.tag_call && not (Hashtbl.mem defined arg) then begin
            Hashtbl.add defined arg ();
            Trace_packed.add_def enc arg (routine_name arg)
          end;
          Trace_packed.add_event enc ~tag ~tid ~arg ~len;
          Trace_packed.chunk_length enc);
      take =
        (fun () ->
          Bytes.unsafe_to_string
            (Trace_transform.seal ~entropy (Trace_packed.take_chunk enc)));
    }
  end

(* The one encode loop.  It writes the trace into [out] and calls [drain
   out] after the header, after every chunk and at close, so a channel
   writer empties [out] each time while [to_string] keeps it whole.  It
   owns what is the same for every version: each chunk's index entry
   (events, tag mask, tid set, file offset), the flush rule, the framing
   (none for version 1), the end marker and the footer. *)
let writer ~chunk_bytes ~index ~format_version ~entropy ~routine_name ~drain
    out =
  Trace_container.check_format_version format_version;
  Buffer.add_string out magic;
  Buffer.add_char out (Char.chr format_version);
  drain out;
  let { add; take } = chunk_encoder ~format_version ~entropy ~routine_name in
  (* A version-3 chunk also flushes on event count: repeat suppression
     can swallow millions of events into a few bytes, and an unbounded
     chunk would destroy the granularity sharded replay plans by.  Every reader rejects a chunk that decodes to more. *)
  let max_events =
    if format_version >= 3 then Trace_packed.max_chunk_events else max_int
  in
  let shards = ref [] in
  let off = ref 5 (* file offset of the next frame *) in
  let events = ref 0 in
  let tag_mask = ref 0 in
  (* The last-tid cache keeps the table lookup off the hot path:
     consecutive events of one thread are the overwhelmingly common
     case. *)
  let tid_set : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let last_tid = ref min_int in
  let flush () =
    if !events > 0 then begin
      let payload = take () in
      let bytes = String.length payload in
      let offset, crc =
        if format_version >= 2 then
          let crc = Trace_frame.add_frame out payload in
          (!off + Trace_wire.uvarint_size bytes + 4, crc)
        else begin
          Buffer.add_string out payload;
          (!off, -1)
        end
      in
      let tids =
        Hashtbl.fold (fun tid () acc -> tid :: acc) tid_set []
        |> List.sort compare |> Array.of_list
      in
      shards :=
        { Trace_container.offset; bytes; events = !events; tag_mask = !tag_mask;
          crc; tids }
        :: !shards;
      off := offset + bytes;
      events := 0;
      tag_mask := 0;
      Hashtbl.reset tid_set;
      last_tid := min_int;
      drain out
    end
  in
  let on_event tag tid arg len =
    let length = add tag tid arg len in
    incr events;
    tag_mask := !tag_mask lor (1 lsl tag);
    if tid <> !last_tid then begin
      last_tid := tid;
      Hashtbl.replace tid_set tid ()
    end;
    if length >= chunk_bytes || !events >= max_events then flush ()
  in
  let close_batch () =
    flush ();
    Buffer.add_char out (Char.chr end_tag);
    if index then
      Trace_container.add_footer out ~format_version ~footer_off:(!off + 1)
        (List.rev !shards);
    drain out
  in
  { Trace_stream.emit_batch = Batch.iter on_event; close_batch }

let batch_writer ?(chunk_bytes = default_chunk) ?(index = true)
    ?(format_version = version) ?(entropy = false)
    ?(routine_name = default_routine_name) oc =
  writer ~chunk_bytes ~index ~format_version ~entropy ~routine_name
    ~drain:(fun out ->
      Buffer.output_buffer oc out;
      Buffer.clear out)
    (Buffer.create 4096)

(* ----- streaming reader: files feed the stream machine --------------- *)

(* A file holds one trace.  Its frames are capped at
   [max_chunk_payload], which bounds what a reader allocates. *)
let feed_input ~salvage ~chunk_bytes ~batch_size ~on_drop ic f =
  let names = Hashtbl.create 64 in
  Trace_net.read_input ~salvage ~max_frame_bytes:max_chunk_payload ~chunk_bytes
    (Trace_net.scratch ~batch_size ())
    {
      on_batch = f;
      on_define = Hashtbl.replace names;
      on_trace_end = ignore;
      on_drop;
    }
    (In_channel.input ic);
  names

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

(* ----- seek paths: the chunk cursor, driven directly ------------------- *)

(* Seek to [sh]'s stored payload and read it into [!buf], grown as
   needed.  @raise End_of_file when the file ends inside it. *)
let read_payload ic buf (sh : shard) =
  if Bytes.length !buf < sh.bytes then buf := Bytes.create sh.bytes;
  In_channel.seek ic (Int64.of_int sh.offset);
  really_input ic !buf 0 sh.bytes

(* The batch, byte buffer, cursor and name table are reused across
   chunks: a sharded replay's session visits its chunks one at a time,
   and visiting one must not allocate beyond the first, largest chunk. *)
let chunk_session ?(batch_size = Batch.default_capacity) ic =
  let cursor = Trace_chunk.create ~version:(file_version ic) in
  let names = Hashtbl.create 64 in
  let define id name = Hashtbl.replace names id name in
  let b = Batch.create ~capacity:(max batch_size Trace_packed.pat_kmax) () in
  let buf = ref Bytes.empty in
  let read (sh : shard) f =
    (match read_payload ic buf sh with
    | exception End_of_file -> bad "chunk at byte %d truncated" sh.offset
    | () -> (
      try
        Trace_chunk.start_verified cursor !buf ~pos:0 ~len:sh.bytes ~crc:sh.crc
      with Trace_stream.Decode_error m ->
        bad "chunk at byte %d: %s" sh.offset m));
    let rec go events =
      Batch.clear b;
      let drained = Trace_chunk.fill cursor ~define b in
      validate_batch b;
      let events = events + Batch.length b in
      if not (Batch.is_empty b) then f b;
      if drained then events else go events
    in
    go 0
  in
  (names, read)

(* ----- salvage reader -------------------------------------------------- *)

type drop = Trace_chunk.drop = {
  drop_chunk : int;
  drop_offset : int;
  drop_bytes : int;
  drop_events : int;
  drop_reason : string;
}

(* Salvage over a usable index: every chunk's boundaries are known, so a
   corrupt chunk is skipped exactly and the next one re-synchronizes the
   stream.  The footer's own CRC (version >= 2) is authoritative; on
   version-1 files detection falls back to decode errors and the
   index's event count.  Each chunk is decoded whole into the stage
   ({!Trace_chunk.salvage}). *)
let salvage_indexed ~report ~version ic shs f =
  let cursor = Trace_chunk.create ~version in
  let stage = ref (Batch.create ~capacity:1024 ()) in
  let names = Hashtbl.create 64 in
  let buf = ref Bytes.empty in
  Array.iteri
    (fun ordinal (sh : shard) ->
      let drop reason =
        report
          {
            drop_chunk = ordinal;
            drop_offset = sh.offset;
            drop_bytes = sh.bytes;
            drop_events = sh.events;
            drop_reason = reason;
          }
      in
      match
        read_payload ic buf sh;
        Trace_chunk.salvage cursor !buf ~pos:0 ~len:sh.bytes ~crc:sh.crc
          ~events:sh.events ~define:(Hashtbl.replace names) stage
      with
      | exception End_of_file -> drop "chunk truncated"
      | exception Trace_stream.Decode_error msg -> drop msg
      | () -> f !stage)
    shs;
  names

let read ?(chunk_bytes = default_chunk) ?(batch_size = Batch.default_capacity)
    ?path ~on_corrupt ic f =
  let events = ref 0 in
  let f b =
    events := !events + Batch.length b;
    f b
  in
  let names =
    match on_corrupt with
    | `Fail ->
      feed_input ~salvage:false ~chunk_bytes ~batch_size ~on_drop:ignore ic f
    | `Skip report -> (
      let version = input_header ic in
      (* A trailer promises an index; it is the authority on chunk
         boundaries, so an unreadable footer is fatal even in salvage
         mode — without trusted boundaries a skip could deliver
         re-framed garbage as events. *)
      match shards ?path ic with
      | Some shs -> salvage_indexed ~report ~version ic shs f
      | None ->
        In_channel.seek ic 0L;
        feed_input ~salvage:true ~chunk_bytes ~batch_size ~on_drop:report ic
          f)
  in
  (names, !events)

(* ----- whole-trace convenience ---------------------------------------- *)

let to_string ?(format_version = version) ?(entropy = false)
    ?(routine_name = default_routine_name) (tr : Trace.t) =
  let out = Buffer.create (16 + (4 * Trace.length tr)) in
  let sink =
    writer ~chunk_bytes:default_chunk ~index:false ~format_version ~entropy
      ~routine_name ~drain:ignore out
  in
  Trace.replay tr sink.Trace_stream.emit_batch;
  sink.Trace_stream.close_batch ();
  Buffer.contents out

(* The string is one slice: the machine gets it whole, then closes. *)
let of_string s =
  let names = ref [] in
  let out = Trace.create () in
  let fed = ref false in
  let input buf pos _ =
    if !fed then 0
    else begin
      fed := true;
      Bytes.blit_string s 0 buf pos (String.length s);
      String.length s
    end
  in
  match
    Trace_net.read_input ~salvage:false ~max_frame_bytes:max_chunk_payload
      ~chunk_bytes:(String.length s) (Trace_net.scratch ())
      {
        on_batch = Trace.add_batch out;
        on_define = (fun id name -> names := (id, name) :: !names);
        on_trace_end = ignore;
        on_drop = ignore;
      }
      input
  with
  | () -> Ok (out, List.rev !names)
  | exception Trace_stream.Decode_error msg -> Error msg

let detect ic =
  let start = In_channel.pos ic in
  let head = really_input_string ic (min 4 (String.length magic)) in
  In_channel.seek ic start;
  if head = magic then `Binary else `Text

let detect ic = try detect ic with End_of_file -> `Text
