(* Container layer: the ATRC header and version negotiation and the ATRI
   shard-index footer (writer side and seekable parse; the streaming
   check lives in {!Trace_net}).  Nothing here looks inside a chunk
   payload — the frame, transform and event layers own those bytes. *)

let bad = Trace_wire.bad
let magic = "ATRC"

(* Version 2 frames every flushed chunk with its byte length and a
   CRC32C of the payload, so readers verify integrity before any varint
   decoding touches the bytes; version 1 (a bare record stream) remains
   readable.  Version 3 keeps the exact v2 framing and index but runs
   each payload through the transform layer (delta + pattern packing,
   optional entropy coding) — see {!Trace_transform} and
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

(* ----- writer side ----------------------------------------------------- *)

(* What the writer remembers about one flushed chunk, to be serialized
   into the footer on close.  [c_crc] is -1 for version-1 output.  For
   version 3, [c_bytes]/[c_crc] describe the *stored* (transformed)
   payload — the thing a seeking reader fetches and checksums — while
   [c_events] still counts decoded events. *)
type chunk_entry = {
  c_bytes : int;
  c_events : int;
  c_tag_mask : int;
  c_crc : int;
  c_tids : int array; (* distinct, ascending *)
}

let add_footer buf ~format_version chunks =
  Buffer.add_string buf index_magic;
  Buffer.add_char buf (Char.chr format_version);
  Trace_wire.add_varint buf (List.length chunks);
  List.iter
    (fun c ->
      Trace_wire.add_varint buf c.c_bytes;
      Trace_wire.add_varint buf c.c_events;
      Trace_wire.add_varint buf c.c_tag_mask;
      if format_version >= 2 then Trace_wire.add_varint buf c.c_crc;
      Trace_wire.add_varint buf (Array.length c.c_tids);
      (* Ascending tids delta-encode into one byte each in practice. *)
      let prev = ref 0 in
      Array.iter
        (fun tid ->
          Trace_wire.add_varint buf (tid - !prev);
          prev := tid)
        c.c_tids)
    chunks

let check_format_version v =
  if v < 1 || v > max_version then
    invalid_arg
      (Printf.sprintf "Trace_codec: cannot write format version %d (1..%d)" v
         max_version)

(* ----- seekable shard index -------------------------------------------- *)

type shard = {
  offset : int;
  bytes : int;
  events : int;
  tag_mask : int;
  crc : int;
  tids : int array;
}

let shards ?(path = "trace") ic =
  In_channel.seek ic 0L;
  let trace_version = input_header ic in
  let total = Int64.to_int (In_channel.length ic) in
  (* Smallest indexed trace: header, marker, footer magic+version+count,
     trailer.  Anything shorter is an old index-less (or text) file. *)
  if total < 5 + 1 + 6 + index_trailer_bytes then None
  else begin
    In_channel.seek ic (Int64.of_int (total - index_trailer_bytes));
    let trailer = really_input_string ic index_trailer_bytes in
    if String.sub trailer 8 4 <> index_magic then None
    else begin
      let footer_off = ref 0 in
      for i = 7 downto 0 do
        footer_off := (!footer_off lsl 8) lor Char.code trailer.[i]
      done;
      let footer_off = !footer_off in
      let footer_len = total - index_trailer_bytes - footer_off in
      if footer_off < 5 + 1 || footer_len < 6 then
        bad "cannot read shard index of %s: bad footer offset %d" path
          footer_off;
      In_channel.seek ic (Int64.of_int footer_off);
      let footer = really_input_string ic footer_len in
      let pos = ref 0 in
      let read_byte () =
        if !pos >= footer_len then
          bad "cannot read shard index of %s: truncated at byte %d" path
            (footer_off + !pos)
        else begin
          let b = Char.code (String.unsafe_get footer !pos) in
          incr pos;
          b
        end
      in
      String.iter
        (fun c ->
          if read_byte () <> Char.code c then
            bad "cannot read shard index of %s: bad footer magic at byte %d"
              path
              (footer_off + !pos - 1))
        index_magic;
      (match read_byte () with
      | v when v = trace_version -> ()
      | v ->
        bad
          "cannot read shard index of %s: index version %d does not match \
           trace version %d"
          path v trace_version);
      let nchunks = Trace_wire.read_varint read_byte in
      if nchunks < 0 || nchunks > footer_len then
        bad "cannot read shard index of %s: implausible chunk count %d" path
          nchunks;
      let off = ref 5 in
      (* Explicit loops: the parse order must match the byte order. *)
      let out = ref [] in
      for _ = 1 to nchunks do
        let bytes = Trace_wire.read_varint read_byte in
        let events = Trace_wire.read_varint read_byte in
        let tag_mask = Trace_wire.read_varint read_byte in
        let crc =
          if trace_version >= 2 then Trace_wire.read_varint read_byte else -1
        in
        let ntids = Trace_wire.read_varint read_byte in
        if
          bytes < 0 || events < 0 || ntids < 0 || ntids > footer_len
          || (trace_version >= 2 && (crc < 0 || crc > 0xFFFFFFFF))
        then
          bad "cannot read shard index of %s: corrupt chunk entry at byte %d"
            path
            (footer_off + !pos);
        let tids = Array.make ntids 0 in
        let prev = ref 0 in
        for i = 0 to ntids - 1 do
          prev := !prev + Trace_wire.read_varint read_byte;
          tids.(i) <- !prev
        done;
        (* [offset]/[bytes] delimit the stored payload; a version >= 2
           frame puts a length varint and 4 CRC bytes in front of it. *)
        let payload_off =
          if trace_version >= 2 then
            !off + Trace_wire.uvarint_size bytes + 4
          else !off
        in
        out :=
          { offset = payload_off; bytes; events; tag_mask; crc; tids } :: !out;
        off := payload_off + bytes
      done;
      let out = Array.of_list (List.rev !out) in
      if !pos <> footer_len then
        bad "cannot read shard index of %s: %d trailing bytes at byte %d" path
          (footer_len - !pos)
          (footer_off + !pos);
      (* The chunks plus the end-of-trace marker must account for every
         byte up to the footer. *)
      if !off + 1 <> footer_off then
        bad "cannot read shard index of %s: chunks cover %d bytes, footer at %d"
          path !off footer_off;
      Some out
    end
  end
