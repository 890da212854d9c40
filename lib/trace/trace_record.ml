(* Event layer, plain coding (format versions 1 and 2): one record per
   event, tag byte + zigzag-varint fields, with interleaved routine-name
   definition records.  This is the layer that fills {!Event.Batch}es —
   including the bulk unsafe fast path — for the chunk cursor
   ({!Trace_chunk}) and the version-1 record path of the stream machine
   ({!Trace_net}). *)

module Batch = Event.Batch

let bad = Trace_wire.bad
let def_tag = 15
let end_tag = 0
let default_routine_name id = Printf.sprintf "routine_%d" id

(* Event record tags are exactly {!Event.Batch}'s tags (1–14), so both
   encode and decode work on the raw packed fields: tid always, then the
   primary payload when the kind has one, then the length when it has
   one.  This is the single plain encoder: the writer's v1/v2 chunks
   funnel into it. *)
let add_record buf ~tag ~tid ~arg ~len =
  Buffer.add_char buf (Char.unsafe_chr tag);
  Trace_wire.add_varint buf tid;
  if Batch.tag_has_arg tag then Trace_wire.add_varint buf arg;
  if Batch.tag_has_len tag then Trace_wire.add_varint buf len

let add_def buf id name =
  Buffer.add_char buf (Char.unsafe_chr def_tag);
  Trace_wire.add_varint buf id;
  Trace_wire.add_varint buf (String.length name);
  Buffer.add_string buf name

(* [encoder buf ~routine_name] is the raw per-record encoder, interning
   routine names: the first [Call] of each routine is preceded by its
   definition record.  Matches {!Event.Batch.iter}'s field order, and
   returns the buffer's length, which the writer's flush rule reads. *)
let encoder buf ~routine_name =
  let defined = Hashtbl.create 64 in
  fun tag tid arg len ->
    if tag = Batch.tag_call && not (Hashtbl.mem defined arg) then begin
      Hashtbl.add defined arg ();
      add_def buf arg (routine_name arg)
    end;
    add_record buf ~tag ~tid ~arg ~len;
    Buffer.length buf

(* One record off a chunk's byte range.  A chunk never contains the
   end-of-trace marker, so tag 0 falls through to the error arm. *)
let chunk_step ~read_byte ~read_string ~define b =
  match read_byte () with
  | -1 -> true (* chunk exhausted at a record boundary *)
  | tag when tag = def_tag ->
    let id = Trace_wire.read_varint read_byte in
    let len = Trace_wire.read_varint read_byte in
    if len < 0 then bad "negative name length";
    define id (read_string len);
    false
  | tag when tag >= 1 && tag <= Batch.max_tag ->
    let tid = Trace_wire.read_varint read_byte in
    let arg =
      if Batch.tag_has_arg tag then Trace_wire.read_varint read_byte else 0
    in
    let len =
      if Batch.tag_has_len tag then Trace_wire.read_varint read_byte else 0
    in
    Batch.unsafe_push b ~tag ~tid ~arg ~len;
    false
  | tag -> bad "unknown record tag %d in chunk" tag

(* Decoded bytes are untrusted; downstream tools index shadow pages,
   dense per-thread state and lockset memo keys with the raw fields and
   no per-access guard, so the batch edge is where negative addresses
   and out-of-range thread/lock ids must die.  Every fill site calls
   this once per refilled batch. *)
let validate_batch b =
  try Batch.validate b
  with Invalid_argument msg -> bad "%s" msg

(* Bulk fast path over a chunk: decode plain event records directly off
   the bytes while a whole record is guaranteed to fit below [limit],
   without going through the [read_byte] closure.  Stops — leaving [pos]
   on the offending tag — at definition records, the end marker, or any
   malformed tag, which the caller then decodes one record at a time. *)
let fill_batch_bytes b chunk pos limit =
  let tags = Batch.tags b and tids = Batch.tids b in
  let args = Batch.args b and lens = Batch.lens b in
  let cap = Array.length tags in
  let arg_mask = Batch.arg_mask and len_mask = Batch.len_mask in
  (* [!p <= last_start] guarantees a whole record fits before [limit]. *)
  let last_start = limit - Trace_wire.max_record_bytes in
  let i = ref (Batch.length b) in
  let p = ref !pos in
  let stop = ref false in
  while (not !stop) && !i < cap && !p <= last_start do
    let tag = Char.code (Bytes.unsafe_get chunk !p) in
    if tag >= 1 && tag <= Batch.max_tag then begin
      incr p;
      let tid = Trace_wire.read_varint_bytes_fast chunk p in
      let arg =
        if (arg_mask lsr tag) land 1 = 1 then
          Trace_wire.read_varint_bytes_fast chunk p
        else 0
      in
      let len =
        if (len_mask lsr tag) land 1 = 1 then
          Trace_wire.read_varint_bytes_fast chunk p
        else 0
      in
      let j = !i in
      Array.unsafe_set tags j tag;
      Array.unsafe_set tids j tid;
      Array.unsafe_set args j arg;
      Array.unsafe_set lens j len;
      i := j + 1
    end
    else stop := true
  done;
  Batch.unsafe_set_length b !i;
  pos := !p

(* Fill [b] from the plain chunk payload [chunk[!pos..limit)] until the
   batch is full or the payload is exhausted, returning [true] on
   exhaustion: the bulk fast path while a whole record fits, one
   [chunk_step] at definitions and near the end.  Resumable ([pos] is
   the cursor): this is the plain half of {!Trace_chunk.fill}. *)
let fill_chunk ~define b chunk pos limit =
  let read_byte () =
    if !pos >= limit then -1
    else begin
      let c = Char.code (Bytes.unsafe_get chunk !pos) in
      incr pos;
      c
    end
  in
  let read_string n =
    if n > limit - !pos then bad "truncated name";
    let s = Bytes.sub_string chunk !pos n in
    pos := !pos + n;
    s
  in
  while !pos < limit && not (Batch.is_full b) do
    fill_batch_bytes b chunk pos limit;
    if !pos < limit && not (Batch.is_full b) then
      ignore (chunk_step ~read_byte ~read_string ~define b)
  done;
  !pos >= limit
