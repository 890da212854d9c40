(* Container layer: the ATRC header and version negotiation and the ATRI
   shard-index footer: its writer, the one entry parser, and the
   seekable parse (the streaming check lives in {!Trace_net}).  Nothing
   here looks inside a chunk payload — the frame, transform and event
   layers own those bytes. *)

let bad = Trace_wire.bad
let magic = "ATRC"

(* Version 2 frames every flushed chunk with its byte length and a
   CRC32C of the payload, so readers verify integrity before any varint
   decoding touches the bytes; version 1 (a bare record stream) remains
   readable.  Version 3 keeps the exact v2 framing and index but runs
   each payload through the transform layer (delta packing and repeat
   suppression, optional entropy coding) — see {!Trace_transform} and
   {!Trace_packed}.  Writers emit version 2 unless asked otherwise. *)
let version = 2
let max_version = 3

(* The shard-index footer appended after the end-of-trace marker; see
   the .mli for the layout.  Its own magic differs from the header's so
   a footer can never be mistaken for the start of a trace.  The index
   version always equals the trace version: version >= 2 entries carry
   the chunk's CRC32C so a seeking reader needs no second look at the
   chunk frame header. *)
let index_magic = "ATRI"
let index_trailer_bytes = 8 + 4 (* LE64 footer offset + magic *)

(* Header validation shared by the channel and string entry points;
   returns the format version (1..3). *)
let parse_header hdr =
  if String.length hdr < 5 then bad "truncated header";
  if String.sub hdr 0 4 <> magic then bad "bad magic: not a binary trace";
  match Char.code hdr.[4] with
  | v when v >= 1 && v <= max_version -> v
  | v ->
    bad "unsupported trace format version %d (expected 1..%d)" v max_version

let input_header ic =
  match really_input_string ic 5 with
  | hdr -> parse_header hdr
  | exception End_of_file -> bad "truncated header"

(* ----- shard index ------------------------------------------------------ *)

(* One chunk as the index describes it.  [offset] and [bytes] delimit
   its stored payload in the file — for version 3 the transformed bytes
   a seeking reader fetches and checksums — while [events] counts
   decoded events.  [crc] is -1 in version 1; [tids] are distinct and
   ascending. *)
type shard = {
  offset : int;
  bytes : int;
  events : int;
  tag_mask : int;
  crc : int;
  tids : int array;
}

(* The footer, at file offset [footer_off], and its trailer.  An
   entry's offset is implied by the chunks before it. *)
let add_footer buf ~format_version ~footer_off shards =
  Buffer.add_string buf index_magic;
  Buffer.add_char buf (Char.chr format_version);
  Trace_wire.add_varint buf (List.length shards);
  List.iter
    (fun sh ->
      Trace_wire.add_varint buf sh.bytes;
      Trace_wire.add_varint buf sh.events;
      Trace_wire.add_varint buf sh.tag_mask;
      if format_version >= 2 then Trace_wire.add_varint buf sh.crc;
      Trace_wire.add_varint buf (Array.length sh.tids);
      (* Ascending tids delta-encode into one byte each in practice. *)
      let prev = ref 0 in
      Array.iter
        (fun tid ->
          Trace_wire.add_varint buf (tid - !prev);
          prev := tid)
        sh.tids)
    shards;
  Trace_wire.add_le64 buf footer_off;
  Buffer.add_string buf index_magic

let check_format_version v =
  if v < 1 || v > max_version then
    invalid_arg
      (Printf.sprintf "Trace_codec: cannot write format version %d (1..%d)" v
         max_version)

(* One footer entry, parsed the same way by both index readers: the
   seekable [shards] below and the stream machine ({!Trace_net}).  The
   result's [offset] is 0; where the chunk sits follows from the entries
   before it.  A sharded replay chooses each chunk's readers from [tids]
   and [tag_mask] alone, so an entry with events must name their
   threads, in range and ascending.  Messages are bare causes: each
   reader adds where it was. *)
let read_entry ~version read_byte =
  let bytes = Trace_wire.read_varint read_byte in
  let events = Trace_wire.read_varint read_byte in
  let tag_mask = Trace_wire.read_varint read_byte in
  let crc = if version >= 2 then Trace_wire.read_varint read_byte else -1 in
  let ntids = Trace_wire.read_varint read_byte in
  if
    bytes < 0 || events < 0 || ntids < 0
    || ntids > Event.max_tid + 1
    || (version >= 2 && (crc < 0 || crc > 0xFFFFFFFF))
  then bad "corrupt chunk entry";
  if events > 0 && ntids = 0 then
    bad "chunk entry names no thread for its %d events" events;
  let tids = Array.make ntids 0 in
  let prev = ref 0 in
  for i = 0 to ntids - 1 do
    let delta = Trace_wire.read_varint read_byte in
    if delta < (if i = 0 then 0 else 1) || delta > Event.max_tid - !prev then
      bad "chunk entry thread ids are not ascending in 0..%d" Event.max_tid;
    prev := !prev + delta;
    tids.(i) <- !prev
  done;
  { offset = 0; bytes; events; tag_mask; crc; tids }

(* ----- seekable shard index -------------------------------------------- *)

let shards ?(path = "trace") ic =
  In_channel.seek ic 0L;
  let version = input_header ic in
  let total = Int64.to_int (In_channel.length ic) in
  (* Smallest indexed trace: header, marker, footer magic+version+count,
     trailer.  Anything shorter is an old index-less (or text) file. *)
  if total < 5 + 1 + 6 + index_trailer_bytes then None
  else begin
    In_channel.seek ic (Int64.of_int (total - index_trailer_bytes));
    let trailer = really_input_string ic index_trailer_bytes in
    if String.sub trailer 8 4 <> index_magic then None
    else begin
      let footer_off = Int64.to_int (String.get_int64_le trailer 0) in
      let footer_len = total - index_trailer_bytes - footer_off in
      if footer_off < 5 + 1 || footer_len < 6 then
        bad "cannot read shard index of %s: bad footer offset %d" path
          footer_off;
      In_channel.seek ic (Int64.of_int footer_off);
      let footer = really_input_string ic footer_len in
      let pos = ref 0 in
      let read_byte () =
        if !pos >= footer_len then bad "truncated"
        else begin
          let b = Char.code (String.unsafe_get footer !pos) in
          incr pos;
          b
        end
      in
      match
        String.iter
          (fun c -> if read_byte () <> Char.code c then bad "bad footer magic")
          index_magic;
        (match read_byte () with
        | v when v = version -> ()
        | v ->
          bad "index version %d does not match trace version %d" v version);
        let nchunks = Trace_wire.read_varint read_byte in
        if nchunks < 0 || nchunks > footer_len then
          bad "implausible chunk count %d" nchunks;
        (* Chunk [i]'s payload follows the earlier frames and, from
           version 2 on, its own length varint and CRC. *)
        let covered = ref 5 in
        let shards =
          Array.init nchunks (fun _ ->
              let sh = read_entry ~version read_byte in
              let offset =
                if version >= 2 then
                  !covered + Trace_wire.uvarint_size sh.bytes + 4
                else !covered
              in
              covered := offset + sh.bytes;
              { sh with offset })
        in
        if !pos <> footer_len then bad "%d trailing bytes" (footer_len - !pos);
        (shards, !covered)
      with
      | exception Trace_stream.Decode_error m ->
        bad "cannot read shard index of %s: %s at byte %d" path m
          (footer_off + !pos)
      | shards, covered ->
        (* The chunks plus the end-of-trace marker must account for every
           byte up to the footer. *)
        if covered + 1 <> footer_off then
          bad "cannot read shard index of %s: chunks cover %d bytes, footer \
               at %d"
            path covered footer_off;
        Some shards
    end
  end
