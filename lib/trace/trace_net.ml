(* Socket-fed ATRC decoding: an incremental, sans-IO state machine that
   accepts the bytes of one connection in arbitrary slices and drives
   callbacks as complete items decode.  The wire format is exactly the
   file format — header, framed chunks (or bare v1 records), end
   marker, optional shard-index footer — so a client can stream a
   recorded trace file verbatim, and several traces may follow each
   other back-to-back on one connection.

   Memory is bounded by one frame plus one batch: the machine buffers
   bytes only until the item under the cursor (frame header + payload,
   one v1 record, or the footer) is complete, then decodes and releases
   them, and decoded events pass through one recycled batch.  Callers
   implement backpressure on top: stop feeding when downstream is busy
   and the kernel socket buffer fills — nothing here queues decoded
   work.

   Corruption policy mirrors the file salvage trichotomy, and so does
   the decode path.  In strict mode a CRC-verified chunk is streamed in
   place through the recycled batch, exactly as the file reader streams
   it, and the first malformation raises {!Trace_stream.Decode_error}
   and poisons the machine.  With [~salvage:true] a chunk is decoded
   whole into a stage first ({!Trace_codec.chunk_decoder}), so a damaged
   v2/v3 chunk is dropped whole (the frame length re-synchronizes the
   stream) and reported through [on_drop]; damage to the framing itself
   — an implausible length, a broken header — is beyond salvage and
   still raises, as does any v1 malformation (bare records offer no
   boundary to re-synchronize on). *)

module Batch = Event.Batch

let bad = Trace_wire.bad

(* Raised internally when the pending bytes end mid-item; the cursor is
   abandoned and the partial item is retried on the next feed. *)
exception Need_more

type callbacks = {
  on_batch : Batch.t -> unit;
      (* decoded events, validated; valid until the callback returns *)
  on_define : int -> string -> unit;  (* routine-name definition *)
  on_trace_end : unit -> unit;  (* end-of-trace marker consumed *)
  on_drop : Trace_codec.drop -> unit;
      (* salvage mode: a damaged chunk was skipped; offsets are relative
         to the current trace's first byte *)
}

type state =
  | Header  (* expecting the 5-byte "ATRC" + version header *)
  | Chunks  (* version >= 2: at a frame boundary *)
  | Records  (* version 1: bare record stream *)
  | Trailer  (* after the end marker: EOF, footer, or another trace *)

type decoder =
  defs:(int * string) list ref -> bytes -> int -> events_hint:int -> Batch.t

type t = {
  cb : callbacks;
  salvage : bool;
  max_frame_bytes : int;
  mutable buf : Bytes.t;  (* pending undecoded bytes at [start..start+len) *)
  mutable start : int;
  mutable len : int;
  mutable off : int;  (* connection-stream offset of [start] *)
  mutable state : state;
  mutable failed : string option;
  mutable version : int;
  mutable trace_off : int;  (* stream offset of the current trace's header *)
  mutable chunk_ord : int;
  mutable frames : (int * int) list;  (* streamed (paylen, crc), newest first *)
  mutable traces : int;
  batch : Batch.t;  (* the recycled batch every streamed event passes through *)
  packed : Trace_packed.decoder;  (* strict v3 chunks *)
  unpacked : Bytes.t ref;  (* strict v3: entropy-decoded payload *)
  (* Salvage only: per-version whole-chunk decoders and the payload copy
     they decode from. *)
  mutable decoders : (int * decoder) list;
  mutable scratch : Bytes.t;
}

(* Names travel inside records, so a corrupt length varint could demand
   gigabytes; no real routine name comes close. *)
let max_name_bytes = 1 lsl 20

(* Pending bytes a consume pass may legitimately leave behind: an
   incomplete frame (header + capped payload) or footer. *)
let pending_slack = 64 * 1024

let create ?(salvage = false) ?(max_frame_bytes = 1 lsl 26) ?batch_size cb =
  if max_frame_bytes < 1 || max_frame_bytes > 1 lsl 30 then
    invalid_arg "Trace_net.create: max_frame_bytes";
  {
    cb;
    salvage;
    max_frame_bytes;
    buf = Bytes.create 65536;
    start = 0;
    len = 0;
    off = 0;
    state = Header;
    failed = None;
    version = 0;
    trace_off = 0;
    chunk_ord = 0;
    frames = [];
    traces = 0;
    batch =
      Batch.create
        ~capacity:
          (max Trace_packed.pat_kmax
             (Option.value batch_size ~default:Batch.default_capacity))
        ();
    packed = Trace_packed.create_decoder ();
    unpacked = ref Bytes.empty;
    decoders = [];
    scratch = Bytes.empty;
  }

let pending_bytes t = t.len
let traces_completed t = t.traces
let failure t = t.failed

let append t bytes pos n =
  if n > 0 then begin
    let cap = Bytes.length t.buf in
    if t.start + t.len + n > cap then
      if t.len + n <= cap then begin
        Bytes.blit t.buf t.start t.buf 0 t.len;
        t.start <- 0
      end
      else begin
        let nb = Bytes.create (max (t.len + n) (2 * cap)) in
        Bytes.blit t.buf t.start nb 0 t.len;
        t.buf <- nb;
        t.start <- 0
      end;
    Bytes.blit bytes pos t.buf (t.start + t.len) n;
    t.len <- t.len + n
  end

let commit t n =
  t.start <- t.start + n;
  t.len <- t.len - n;
  t.off <- t.off + n

(* Read one pending byte at cursor [cur] (an offset past [start]);
   running out of pending bytes abandons the current item. *)
let u8 t cur =
  if !cur >= t.len then raise Need_more
  else begin
    let b = Char.code (Bytes.unsafe_get t.buf (t.start + !cur)) in
    incr cur;
    b
  end

let decoder t =
  match List.assoc_opt t.version t.decoders with
  | Some d -> d
  | None ->
    let d = Trace_codec.chunk_decoder ~version:t.version () in
    t.decoders <- (t.version, d) :: t.decoders;
    d

let step_header t =
  if t.len < 5 then false
  else begin
    let hdr = Bytes.sub_string t.buf t.start 5 in
    t.version <- Trace_container.parse_header hdr;
    t.trace_off <- t.off;
    t.chunk_ord <- 0;
    t.frames <- [];
    commit t 5;
    t.state <- (if t.version >= 2 then Chunks else Records);
    true
  end

let deliver t =
  if Batch.length t.batch > 0 then begin
    Trace_record.validate_batch t.batch;
    t.cb.on_batch t.batch;
    Batch.clear t.batch
  end

(* Version-1 records, one at a time: each record commits on its own (a
   mid-record shortfall rolls the cursor back to the record start), and
   decoded events accumulate in a recycled batch that [feed] flushes
   when the slice is drained. *)
let step_records t =
  let progress = ref false in
  (try
     while t.state = Records do
       let cur = ref 0 in
       let tag = u8 t cur in
       if tag = Trace_record.end_tag then begin
         deliver t;
         commit t !cur;
         progress := true;
         t.traces <- t.traces + 1;
         t.state <- Trailer;
         t.cb.on_trace_end ()
       end
       else if tag = Trace_record.def_tag then begin
         let id = Trace_wire.read_varint (fun () -> u8 t cur) in
         let nlen = Trace_wire.read_varint (fun () -> u8 t cur) in
         if nlen < 0 || nlen > max_name_bytes then
           bad "implausible name length %d" nlen;
         if !cur + nlen > t.len then raise Need_more;
         let name = Bytes.sub_string t.buf (t.start + !cur) nlen in
         cur := !cur + nlen;
         commit t !cur;
         progress := true;
         t.cb.on_define id name
       end
       else if tag >= 1 && tag <= Batch.max_tag then begin
         let tid = Trace_wire.read_varint (fun () -> u8 t cur) in
         let arg =
           if Batch.tag_has_arg tag then
             Trace_wire.read_varint (fun () -> u8 t cur)
           else 0
         in
         let ln =
           if Batch.tag_has_len tag then
             Trace_wire.read_varint (fun () -> u8 t cur)
           else 0
         in
         commit t !cur;
         progress := true;
         if Batch.is_full t.batch then deliver t;
         Batch.unsafe_push t.batch ~tag ~tid ~arg ~len:ln
       end
       else bad "unknown record tag %d" tag
     done
   with Need_more -> ());
  !progress

(* Strict mode streams a verified payload [t.buf[pos..pos+len)] through
   the recycled batch with the file readers' per-version fills,
   delivering whenever the batch fills; definitions go out inline, so
   each precedes the batch that may reference it.  The remainder waits
   in the batch for the next chunk, the end marker or the end of the
   feed. *)
let stream_chunk t pos len =
  let fill =
    if t.version >= 3 then begin
      let pbuf, ppos, plen =
        Trace_transform.open_payload t.buf ~pos ~len ~scratch:t.unpacked
      in
      Trace_packed.start_chunk t.packed pbuf ~pos:ppos ~len:plen;
      fun () -> Trace_packed.fill t.packed ~define:t.cb.on_define t.batch
    end
    else
      let cur = ref pos in
      fun () ->
        Trace_record.fill_chunk ~define:t.cb.on_define t.batch t.buf cur
          (pos + len)
  in
  while not (fill ()) do
    deliver t
  done

(* Salvage mode decodes the payload whole before delivering anything, so
   a damaged chunk is dropped whole.  The payload is copied into a
   recycled scratch buffer and its pending bytes committed *before* the
   CRC check and decode, so the chunk is already skipped when salvage
   reports it — the frame length is the re-synchronization point,
   exactly as in the file reader. *)
let salvage_chunk t ~hdr ~paylen ~crc ~ord ~rel_off =
  if Bytes.length t.scratch < paylen then
    t.scratch <- Bytes.create (max paylen (2 * Bytes.length t.scratch));
  Bytes.blit t.buf (t.start + hdr) t.scratch 0 paylen;
  commit t (hdr + paylen);
  match
    let context () = Printf.sprintf "chunk %d at byte %d" ord rel_off in
    Trace_frame.check_payload ~context t.scratch ~pos:0 ~len:paylen ~crc;
    let defs = ref [] in
    let b = (decoder t) ~defs t.scratch paylen ~events_hint:(-1) in
    (b, defs)
  with
  | b, defs ->
    List.iter (fun (id, name) -> t.cb.on_define id name) (List.rev !defs);
    t.cb.on_batch b
  | exception Trace_stream.Decode_error reason ->
    t.cb.on_drop
      {
        Trace_codec.drop_chunk = ord;
        drop_offset = rel_off;
        drop_bytes = paylen;
        drop_events = -1;
        drop_reason = reason;
      }

(* One framed chunk (or the end marker).  A strict chunk is committed
   first, like a salvaged one, so it is consumed exactly once whatever
   its callbacks do, and then checked and decoded where it lies: nothing
   overwrites the buffer before the next [feed] appends. *)
let step_chunk t =
  let parsed =
    let cur = ref 0 in
    try
      let paylen = Trace_wire.read_uvarint (fun () -> u8 t cur) in
      if paylen = 0 then `End !cur
      else begin
        if paylen > t.max_frame_bytes then
          bad "chunk %d at byte %d: implausible length %d" t.chunk_ord
            (t.off - t.trace_off) paylen;
        let crc = ref 0 in
        for i = 0 to 3 do
          crc := !crc lor (u8 t cur lsl (8 * i))
        done;
        if !cur + paylen > t.len then raise Need_more;
        `Frame (!cur, paylen, !crc)
      end
    with Need_more -> `More
  in
  match parsed with
  | `More -> false
  | `End n ->
    deliver t;
    commit t n;
    t.traces <- t.traces + 1;
    t.state <- Trailer;
    t.cb.on_trace_end ();
    true
  | `Frame (hdr, paylen, crc) ->
    let rel_off = t.off + hdr - t.trace_off in
    let ord = t.chunk_ord in
    t.chunk_ord <- ord + 1;
    t.frames <- (paylen, crc) :: t.frames;
    if t.salvage then salvage_chunk t ~hdr ~paylen ~crc ~ord ~rel_off
    else begin
      let pos = t.start + hdr in
      commit t (hdr + paylen);
      let context () = Printf.sprintf "chunk %d at byte %d" ord rel_off in
      Trace_frame.check_payload ~context t.buf ~pos ~len:paylen ~crc;
      stream_chunk t pos paylen
    end;
    true

(* The shard-index footer, streamed.  In strict mode the streamed frame
   sequence is cross-checked against the footer exactly as the file
   reader does ({!Trace_container.check_streamed_footer}); under
   salvage only the layout is verified (skipped frames make the
   cross-check meaningless).  The trailer offset is checked in both
   modes — it is trace-relative, so a client streaming a file verbatim
   matches. *)
let step_footer t =
  let cur = ref 0 in
  let rb () = u8 t cur in
  let footer_rel = t.off - t.trace_off in
  cur := 4 (* the "ATRI" magic, matched by the caller *);
  (match rb () with
  | v when v = t.version -> ()
  | v ->
    bad "shard index version %d does not match trace version %d" v t.version);
  let strict = (not t.salvage) && t.version >= 2 in
  let frames = if strict then Array.of_list (List.rev t.frames) else [||] in
  let nchunks = Trace_wire.read_varint rb in
  if nchunks < 0 || nchunks > 1 lsl 24 then
    bad "implausible shard index chunk count %d" nchunks;
  if strict && nchunks <> Array.length frames then
    bad "shard index describes %d chunks, the stream carried %d" nchunks
      (Array.length frames);
  for k = 0 to nchunks - 1 do
    let bytes = Trace_wire.read_varint rb in
    let _events = Trace_wire.read_varint rb in
    let _tag_mask = Trace_wire.read_varint rb in
    let crc = if t.version >= 2 then Trace_wire.read_varint rb else -1 in
    let ntids = Trace_wire.read_varint rb in
    if ntids < 0 || ntids > 0x10000 then bad "corrupt shard index entry %d" k;
    for _ = 1 to ntids do
      ignore (Trace_wire.read_varint rb)
    done;
    if strict then begin
      let sbytes, scrc = frames.(k) in
      if bytes <> sbytes || crc <> scrc then
        bad "chunk %d does not match its shard index entry" k
    end
  done;
  let off = ref 0 in
  for i = 0 to 7 do
    off := !off lor (rb () lsl (8 * i))
  done;
  if !off <> footer_rel then
    bad "shard index trailer points at byte %d, footer is at byte %d" !off
      footer_rel;
  String.iter
    (fun c -> if rb () <> Char.code c then bad "bad shard index trailer magic")
    Trace_container.index_magic;
  commit t !cur;
  true

let step_trailer t =
  if t.len = 0 then false
  else if Bytes.get t.buf t.start <> 'A' then
    bad "trailing data after end-of-trace marker"
  else if t.len < 4 then false
  else begin
    let four = Bytes.sub_string t.buf t.start 4 in
    if four = Trace_container.magic then begin
      (* Another trace follows back-to-back; the header step consumes. *)
      t.state <- Header;
      true
    end
    else if four = Trace_container.index_magic then
      try step_footer t with Need_more -> false
    else bad "trailing data after end-of-trace marker"
  end

let check_failed t =
  match t.failed with
  | Some m -> raise (Trace_stream.Decode_error m)
  | None -> ()

let feed t bytes ~pos ~len =
  check_failed t;
  if pos < 0 || len < 0 || pos + len > Bytes.length bytes then
    invalid_arg "Trace_net.feed";
  try
    append t bytes pos len;
    let progress = ref true in
    while !progress do
      progress :=
        (match t.state with
        | Header -> step_header t
        | Chunks -> step_chunk t
        | Records -> step_records t
        | Trailer -> step_trailer t)
    done;
    (* Deliver what this slice completed even when the next item is
       still open: a live profiler should not wait for a full batch. *)
    deliver t;
    if t.len > t.max_frame_bytes + pending_slack then
      bad "connection buffered %d bytes without a decodable item" t.len
  with Trace_stream.Decode_error m as e ->
    t.failed <- Some m;
    raise e

let close t =
  check_failed t;
  let clean =
    t.len = 0
    && match t.state with Trailer -> true | Header -> t.off = 0 | _ -> false
  in
  if not clean then begin
    let m = "truncated trace (missing end-of-trace marker)" in
    t.failed <- Some m;
    raise (Trace_stream.Decode_error m)
  end
