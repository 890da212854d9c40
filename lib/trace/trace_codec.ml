(* Facade over the layered trace codec.  The layers, bottom up:

     {!Trace_wire}       varints, little-endian fields, [Decode_error]
     {!Trace_frame}      length + CRC32C framing of chunk payloads
     {!Trace_transform}  version-3 payload transforms (packing + entropy)
     {!Trace_record}     plain event records (versions 1 and 2)
     {!Trace_packed}     packed event coding (version 3)
     {!Trace_chunk}      the one payload decoder: a per-version cursor
     {!Trace_container}  header/version negotiation, ATRI shard index
     {!Trace_net}        the one stream decoder: headers, frames, v1
                         records, end markers, footers, salvage

   This module owns the writers and the policies that cut across layers
   (when chunks flush), and wires the readers as thin drivers: channels
   and strings pull from {!Trace_net}, and the seek paths (chunk
   sessions, indexed salvage) drive the chunk cursor directly.  Formats
   1 and 2 are byte-for-byte what the pre-split codec produced (pinned
   by the golden tests); format 3 reuses the v2 framing and index around
   transformed payloads. *)

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
let uvarint_size = Trace_wire.uvarint_size
let end_tag = Trace_record.end_tag
let validate_batch = Trace_record.validate_batch
let input_header = Trace_container.input_header
let default_routine_name = Trace_record.default_routine_name
let file_version ic =
  In_channel.seek ic 0L;
  input_header ic

(* A version-3 chunk also flushes on event count: repeat suppression can
   swallow millions of events into a few bytes, and an unbounded chunk
   would destroy the granularity the work-stealing replay shards by.
   Every reader rejects a chunk that decodes to more
   ({!Trace_packed.max_chunk_events}). *)
let v3_chunk_events = Trace_packed.max_chunk_events

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

(* ----- streaming reader: a pull driver of the stream machine -------- *)

(* A file holds one trace.  Its frames are capped at
   [max_chunk_payload], which bounds what a reader allocates. *)
let pull ~salvage ~chunk_bytes ~batch_size ~on_drop ic =
  let names = Hashtbl.create 64 in
  ( names,
    Trace_net.source ~salvage ~max_frame_bytes:max_chunk_payload ~batch_size
      ~chunk_bytes ~on_define:(Hashtbl.replace names) ~on_drop
      (In_channel.input ic) )

let batch_reader ?(chunk_bytes = default_chunk)
    ?(batch_size = Batch.default_capacity) ic =
  pull ~salvage:false ~chunk_bytes ~batch_size ~on_drop:ignore ic

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

(* ----- seek paths: the chunk cursor, driven directly ------------------- *)

(* Seek to [sh]'s stored payload and read it into [!buf], grown as
   needed.  @raise End_of_file when the file ends inside it. *)
let read_payload ic buf (sh : shard) =
  if Bytes.length !buf < sh.bytes then buf := Bytes.create sh.bytes;
  In_channel.seek ic (Int64.of_int sh.offset);
  really_input ic !buf 0 sh.bytes

(* The batch, byte buffer, cursor and name table are reused across
   chunks: the work-stealing engine claims chunks one at a time, and
   visiting one must not allocate beyond the first, largest chunk. *)
let chunk_session ?(batch_size = Batch.default_capacity) ?keep ic =
  let cursor = Trace_chunk.create ~version:(file_version ic) in
  let names = Hashtbl.create 64 in
  let define id name = Hashtbl.replace names id name in
  let b = Batch.create ~capacity:(max batch_size Trace_packed.pat_kmax) () in
  let buf = ref Bytes.empty in
  let read (sh : shard) =
    (match read_payload ic buf sh with
    | exception End_of_file -> bad "chunk at byte %d truncated" sh.offset
    | () -> (
      (* Verify before decoding: the fast paths trust these bytes. *)
      if sh.crc >= 0 then
        try Trace_frame.check_payload !buf ~pos:0 ~len:sh.bytes ~crc:sh.crc
        with Trace_stream.Decode_error m ->
          bad "chunk at byte %d: %s" sh.offset m));
    Trace_chunk.start cursor !buf ~pos:0 ~len:sh.bytes;
    let finished = ref false in
    fun () ->
      if !finished then None
      else begin
        Batch.clear b;
        finished := Trace_chunk.fill cursor ?keep ~define b;
        validate_batch b;
        if Batch.is_empty b then None else Some b
      end
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
   index's event count.  Each chunk is decoded whole into the stage and
   its definitions committed only once it proves clean. *)
let salvage_indexed ~report ~version ic shs =
  let cursor = Trace_chunk.create ~version in
  let stage = ref (Batch.create ~capacity:1024 ()) in
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
      let defs = ref [] in
      match
        read_payload ic buf sh;
        if sh.crc >= 0 then
          Trace_frame.check_payload !buf ~pos:0 ~len:sh.bytes ~crc:sh.crc;
        Trace_chunk.start cursor !buf ~pos:0 ~len:sh.bytes;
        Trace_chunk.drain cursor
          ~define:(fun id name -> defs := (id, name) :: !defs)
          stage
      with
      | exception End_of_file -> drop "chunk truncated"
      | exception Trace_stream.Decode_error msg -> drop msg
      | () ->
        let b = !stage in
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
  in
  (names, next)

let read ?(chunk_bytes = default_chunk) ?(batch_size = Batch.default_capacity)
    ?path ~on_corrupt ic =
  match on_corrupt with
  | `Fail -> batch_reader ~chunk_bytes ~batch_size ic
  | `Skip report -> (
    let version = input_header ic in
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
    if has_trailer then
      (* The trailer promises an index; it is the authority on chunk
         boundaries, so an unreadable footer is fatal even in salvage
         mode — without trusted boundaries a skip could deliver
         re-framed garbage as events. *)
      match shards ?path ic with
      | Some shs -> salvage_indexed ~report ~version ic shs
      | None ->
        bad "cannot salvage %s: trailer present but index unreadable"
          (Option.value path ~default:"trace")
    else begin
      In_channel.seek ic 0L;
      pull ~salvage:true ~chunk_bytes ~batch_size ~on_drop:report ic
    end)

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

(* The string is one slice: the machine gets it whole, then closes. *)
let of_string s =
  let names = ref [] in
  let out = Vec.create () in
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
    let batches =
      Trace_net.source ~salvage:false ~max_frame_bytes:max_chunk_payload
        ~batch_size:Batch.default_capacity ~chunk_bytes:(String.length s)
        ~on_define:(fun id name -> names := (id, name) :: !names)
        ~on_drop:ignore input
    in
    Trace_stream.connect_batches batches
      {
        Trace_stream.emit_batch = Batch.iter_events (Vec.push out);
        close_batch = ignore;
      }
  with
  | _ -> Ok (out, List.rev !names)
  | exception Trace_stream.Decode_error msg -> Error msg

let detect ic =
  let start = In_channel.pos ic in
  let head = really_input_string ic (min 4 (String.length magic)) in
  In_channel.seek ic start;
  if head = magic then `Binary else `Text

let detect ic = try detect ic with End_of_file -> `Text
