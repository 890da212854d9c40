(* The ATRC decoder: an incremental, sans-IO state machine that accepts
   the bytes of one input in arbitrary slices.  It is the only code that
   parses headers, frames, version-1 records, end markers and shard-index
   footers; chunk payloads go through the one payload decoder
   ({!Trace_chunk}).  Every reader drives it:

     connections  [feed] pushes each received slice; back-to-back traces
     files        [source] pulls from a channel in [chunk_bytes] slices
     strings      [source] over the whole string at once

   Memory is bounded by one frame plus one batch: bytes are buffered only
   until the item under the cursor (frame header + payload, one v1
   record, or the footer) is complete.  A verified strict chunk stays
   open in [t] and streams through the recycled batch in place, so a
   pull hands out full batches without copying events, and a push runs
   the same loop until the pending bytes end mid-item.

   Corruption follows the salvage trichotomy.  Strict mode raises
   {!Trace_stream.Decode_error} at the first malformation and poisons the
   machine.  With [~salvage:true] each chunk is decoded whole first
   ({!Trace_chunk.drain}), so a damaged v2/v3 chunk is dropped whole —
   the frame length re-synchronizes the stream — while damage that no
   frame length bounds (broken framing, any v1 malformation, a bad
   footer, truncation) is reported as one terminal drop, after which the
   rest of the input is discarded.  Only an unreadable header is beyond
   salvage. *)

module Batch = Event.Batch

let bad = Trace_wire.bad

(* Raised internally when the pending bytes end mid-item; the cursor is
   abandoned and the partial item is retried once more bytes arrive. *)
exception Need_more

type callbacks = {
  on_batch : Batch.t -> unit;
  on_define : int -> string -> unit;
  on_trace_end : unit -> unit;
  on_drop : Trace_chunk.drop -> unit;
}

type state =
  | Header  (* expecting the 5-byte "ATRC" + version header *)
  | Chunks  (* version >= 2: at a frame boundary *)
  | Records  (* version 1: bare record stream *)
  | Trailer  (* after the end marker: footer, end of input, next trace *)
  | Gap  (* after the footer: end of input or the next trace *)
  | Lost  (* salvage, after a terminal drop: input is discarded *)

(* What one step of the machine produced. *)
type step = Continue | Ready of Batch.t | Hungry

type t = {
  cb : callbacks;
  salvage : bool;
  one_trace : bool;  (* files and strings: a second trace is trailing data *)
  max_frame_bytes : int;
  mutable buf : Bytes.t;  (* pending undecoded bytes at [start..start+len) *)
  mutable start : int;
  mutable len : int;
  mutable off : int;  (* input offset of [start] *)
  mutable state : state;
  mutable failed : string option;
  mutable version : int;
  mutable trace_off : int;  (* input offset of the current trace's header *)
  mutable chunk_ord : int;
  mutable frames : (int * int) list;  (* streamed (paylen, crc), newest first *)
  mutable traces : int;
  batch : Batch.t;  (* the recycled batch every streamed event passes through *)
  mutable handed : bool;  (* [batch] went out: clear it before refilling *)
  mutable cursor : Trace_chunk.t;
  mutable chunk_open : bool;  (* strict: [cursor] holds an undrained chunk *)
  stage : Batch.t ref;  (* salvage: the whole-chunk stage *)
}

(* Names travel inside records, so a corrupt length varint could demand
   gigabytes; no real routine name comes close. *)
let max_name_bytes = 1 lsl 20

(* Pending bytes a decode pass may legitimately leave behind: an
   incomplete frame (header + capped payload) or footer. *)
let pending_slack = 64 * 1024

let make ~one_trace ~salvage ~max_frame_bytes ~batch_size cb =
  if max_frame_bytes < 1 || max_frame_bytes > 1 lsl 30 then
    invalid_arg "Trace_net.create: max_frame_bytes";
  {
    cb;
    salvage;
    one_trace;
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
    batch = Batch.create ~capacity:(max Trace_packed.pat_kmax batch_size) ();
    handed = false;
    cursor = Trace_chunk.create ~version:2;
    chunk_open = false;
    stage = ref (Batch.create ~capacity:(if salvage then 1024 else 1) ());
  }

let create ?(salvage = false) ?(max_frame_bytes = 1 lsl 26)
    ?(batch_size = Batch.default_capacity) cb =
  make ~one_trace:false ~salvage ~max_frame_bytes ~batch_size cb

let pending_bytes t = t.len
let traces_completed t = t.traces
let failure t = t.failed

(* Make room for [n] more pending bytes.  Compaction moves the pending
   bytes, so it only ever runs while no chunk is open. *)
let reserve t n =
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

let check_pending t =
  if t.len > t.max_frame_bytes + pending_slack then
    bad "connection buffered %d bytes without a decodable item" t.len

(* Hand out the recycled batch; the next step clears it. *)
let ready t =
  Trace_record.validate_batch t.batch;
  t.handed <- true;
  Ready t.batch

(* A chunk-level failure.  A drop record carries the chunk and offset
   itself, so salvage keeps the bare cause; a strict read names them. *)
let chunk_error t ~ord ~off reason =
  if t.salvage then bad "%s" reason
  else bad "chunk %d at byte %d: %s" ord off reason

(* Salvage: damage no frame length bounds ends the read with one drop
   of everything from the item under the cursor on.  A version-1 stream
   has no chunk structure, and the batch under construction (discarded
   with it) started at an unknown record, so both stay unknown there. *)
let lose t reason =
  let v1 = t.version < 2 in
  Batch.clear t.batch;
  t.handed <- false;
  t.chunk_open <- false;
  t.cb.on_drop
    {
      Trace_chunk.drop_chunk = (if v1 then -1 else t.chunk_ord);
      drop_offset = (if v1 then -1 else t.off - t.trace_off);
      drop_bytes = -1;
      drop_events = -1;
      drop_reason = reason;
    };
  commit t t.len;
  t.state <- Lost

let step_header t =
  if t.len < 5 then Hungry
  else begin
    let v = Trace_container.parse_header (Bytes.sub_string t.buf t.start 5) in
    if v <> t.version then t.cursor <- Trace_chunk.create ~version:v;
    t.version <- v;
    t.trace_off <- t.off;
    t.chunk_ord <- 0;
    t.frames <- [];
    commit t 5;
    t.state <- (if v >= 2 then Chunks else Records);
    Continue
  end

(* The end marker, once every event before it went out. *)
let end_trace t n =
  if not (Batch.is_empty t.batch) then ready t
  else begin
    commit t n;
    t.traces <- t.traces + 1;
    t.state <- Trailer;
    t.cb.on_trace_end ();
    Continue
  end

(* Version-1 records: the bulk fast path over the pending bytes, and
   one record at a time only at a definition, at the end marker and at
   the edge of the pending bytes, where a record may be incomplete. *)
let step_records t =
  let pos = ref t.start in
  Trace_record.fill_batch_bytes t.batch t.buf pos (t.start + t.len);
  commit t (!pos - t.start);
  if Batch.is_full t.batch then ready t
  else
    let cur = ref 0 in
    let varint () = Trace_wire.read_varint (fun () -> u8 t cur) in
    match u8 t cur with
    | exception Need_more -> Hungry
    | tag when tag = Trace_record.end_tag -> end_trace t !cur
    | tag when tag = Trace_record.def_tag -> (
      match
        let id = varint () in
        let nlen = varint () in
        if nlen < 0 || nlen > max_name_bytes then
          bad "implausible name length %d" nlen;
        if !cur + nlen > t.len then raise Need_more;
        (id, Bytes.sub_string t.buf (t.start + !cur) nlen)
      with
      | exception Need_more -> Hungry
      | id, name ->
        commit t (!cur + String.length name);
        t.cb.on_define id name;
        Continue)
    | tag when tag >= 1 && tag <= Batch.max_tag -> (
      match
        let tid = varint () in
        let arg = if Batch.tag_has_arg tag then varint () else 0 in
        let len = if Batch.tag_has_len tag then varint () else 0 in
        (tid, arg, len)
      with
      | exception Need_more -> Hungry
      | tid, arg, len ->
        commit t !cur;
        Batch.unsafe_push t.batch ~tag ~tid ~arg ~len;
        Continue)
    | tag -> bad "unknown record tag %d" tag

(* Salvage decodes a verified payload whole before delivering any of it,
   so a damaged chunk is dropped whole; its definitions are committed
   only once the chunk proves clean. *)
let salvage_chunk t ~pos ~paylen ~crc ~ord ~rel_off =
  let defs = ref [] in
  match
    Trace_frame.check_payload t.buf ~pos ~len:paylen ~crc;
    Trace_chunk.start t.cursor t.buf ~pos ~len:paylen;
    Trace_chunk.drain t.cursor
      ~define:(fun id name -> defs := (id, name) :: !defs)
      t.stage
  with
  | () ->
    List.iter (fun (id, name) -> t.cb.on_define id name) (List.rev !defs);
    if Batch.is_empty !(t.stage) then Continue else Ready !(t.stage)
  | exception Trace_stream.Decode_error reason ->
    t.cb.on_drop
      {
        Trace_chunk.drop_chunk = ord;
        drop_offset = rel_off;
        drop_bytes = paylen;
        drop_events = -1;
        drop_reason = reason;
      };
    Continue

(* One framed chunk, or the end marker.  The frame is committed before
   it is checked, so it is consumed exactly once whatever its callbacks
   do; a strict chunk then opens in place (nothing overwrites the bytes
   before the next refill, and refills wait until it is drained). *)
let step_chunk t =
  let cur = ref 0 in
  match
    let paylen = Trace_wire.read_uvarint (fun () -> u8 t cur) in
    if paylen = 0 then `End
    else begin
      if paylen > t.max_frame_bytes then
        chunk_error t ~ord:t.chunk_ord ~off:(t.off - t.trace_off)
          (Printf.sprintf "implausible chunk length %d" paylen);
      let crc = ref 0 in
      for i = 0 to 3 do
        crc := !crc lor (u8 t cur lsl (8 * i))
      done;
      if !cur + paylen > t.len then raise Need_more;
      `Frame (paylen, !crc)
    end
  with
  | exception Need_more -> Hungry
  | `End -> end_trace t !cur
  | `Frame (paylen, crc) ->
    let pos = t.start + !cur in
    let rel_off = t.off + !cur - t.trace_off in
    let ord = t.chunk_ord in
    t.chunk_ord <- ord + 1;
    t.frames <- (paylen, crc) :: t.frames;
    commit t (!cur + paylen);
    if t.salvage then salvage_chunk t ~pos ~paylen ~crc ~ord ~rel_off
    else begin
      (try Trace_frame.check_payload t.buf ~pos ~len:paylen ~crc
       with Trace_stream.Decode_error m -> chunk_error t ~ord ~off:rel_off m);
      Trace_chunk.start t.cursor t.buf ~pos ~len:paylen;
      t.chunk_open <- true;
      Continue
    end

(* Drain the open strict chunk into the recycled batch. *)
let step_open_chunk t =
  if Trace_chunk.fill t.cursor ~define:t.cb.on_define t.batch then begin
    t.chunk_open <- false;
    Continue
  end
  else ready t

(* The shard-index footer.  A strict framed stream is cross-checked
   against it: a duplicated, deleted or reordered frame is internally
   self-consistent, and the footer is the one record of what the writer
   flushed.  Under salvage (skipped frames make the cross-check
   meaningless) and for version 1 (no frames) only the layout is
   checked.  The trailer offset is trace-relative, so a client
   streaming a file verbatim matches. *)
let step_footer t =
  let cur = ref 4 (* the "ATRI" magic, matched by the caller *) in
  let rb () = u8 t cur in
  let footer_rel = t.off - t.trace_off in
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
  t.state <- Gap;
  Continue

(* After the end marker: one footer, then only the next trace of a
   connection may follow. *)
let step_trailer t =
  let trailing () =
    if t.state = Trailer then bad "trailing data after end-of-trace marker"
    else bad "trailing data after shard index"
  in
  if t.len = 0 then Hungry
  else if Bytes.get t.buf t.start <> 'A' then trailing ()
  else if t.len < 4 then Hungry
  else
    match Bytes.sub_string t.buf t.start 4 with
    | m when m = Trace_container.magic && not t.one_trace ->
      t.state <- Header;
      Continue
    | m when m = Trace_container.index_magic && t.state = Trailer -> (
      try step_footer t with Need_more -> Hungry)
    | _ -> trailing ()

(* One step.  [partial] hands out a part-filled batch once the pending
   bytes run out (a push delivers what each slice completed).  Under
   salvage, a malformation that escapes a step is beyond its chunk. *)
let step t ~partial =
  if t.handed then begin
    Batch.clear t.batch;
    t.handed <- false
  end;
  try
    match
      if t.chunk_open then step_open_chunk t
      else
        match t.state with
        | Header -> step_header t
        | Chunks -> step_chunk t
        | Records -> step_records t
        | Trailer | Gap -> step_trailer t
        | Lost ->
          commit t t.len;
          Hungry
    with
    | Hungry when partial && not (Batch.is_empty t.batch) -> ready t
    | r -> r
  with Trace_stream.Decode_error reason when t.salvage && t.state <> Header ->
    lose t reason;
    Continue

let rec pump t ~partial =
  match step t ~partial with Continue -> pump t ~partial | r -> r

let check_failed t =
  match t.failed with
  | Some m -> raise (Trace_stream.Decode_error m)
  | None -> ()

(* Run [f], poisoning the machine if it raises a decode error. *)
let guard t f =
  try f ()
  with Trace_stream.Decode_error m as e ->
    t.failed <- Some m;
    raise e

let close t =
  check_failed t;
  guard t (fun () ->
      let clean =
        t.len = 0
        &&
        match t.state with
        | Trailer | Gap | Lost -> true
        | Header -> t.off = 0
        | Chunks | Records -> false
      in
      if not clean then begin
        let m = "truncated trace (missing end-of-trace marker)" in
        if t.salvage && t.state <> Header then lose t m
        else bad "%s" m
      end)

let feed t bytes ~pos ~len =
  check_failed t;
  if pos < 0 || len < 0 || pos + len > Bytes.length bytes then
    invalid_arg "Trace_net.feed";
  guard t (fun () ->
      reserve t len;
      Bytes.blit bytes pos t.buf (t.start + t.len) len;
      t.len <- t.len + len;
      let rec drain () =
        match pump t ~partial:true with
        | Ready b ->
          t.cb.on_batch b;
          drain ()
        | Continue | Hungry -> ()
      in
      drain ();
      check_pending t)

let source ~salvage ~max_frame_bytes ~batch_size ~chunk_bytes ~on_define
    ~on_drop input =
  let cb =
    { on_batch = ignore; on_define; on_trace_end = ignore; on_drop }
  in
  let t = make ~one_trace:true ~salvage ~max_frame_bytes ~batch_size cb in
  let slice = max 1 chunk_bytes in
  (* Read straight into the pending buffer: no chunk is open when the
     machine runs hungry. *)
  let refill () =
    check_pending t;
    reserve t slice;
    let n = input t.buf (t.start + t.len) slice in
    t.len <- t.len + n;
    n > 0
  in
  guard t (fun () ->
      while t.len < 5 && refill () do
        ()
      done;
      if t.len < 5 then bad "truncated header";
      ignore (step_header t));
  let finished = ref false in
  let rec next () =
    match pump t ~partial:false with
    | Ready b -> Some b
    | Continue | Hungry ->
      if refill () then next ()
      else begin
        close t;
        finished := true;
        None
      end
  in
  fun () -> if !finished then None else (check_failed t; guard t next)
