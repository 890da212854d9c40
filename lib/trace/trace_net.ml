(* The ATRC decoder: an incremental, sans-IO state machine that accepts
   the bytes of one input in arbitrary slices.  It is the only code that
   parses headers, frames, version-1 records, end markers and shard-index
   footers; chunk payloads go through the one payload decoder
   ({!Trace_chunk}).  There is one way in, [feed], and every reader
   drives it the same way:

     connections  each received slice; back-to-back traces
     files        [read_input]: [chunk_bytes] slices of one trace
     strings      [read_input]: the whole string as one slice

   State is split by lifetime.  A machine [t] holds one input's parse
   state: where the cursor is, the version, the frames streamed so far,
   and the slices an unfinished item is still in.  A [scratch] holds
   what only a decode pass needs: the recycled batch every streamed
   event passes through, the chunk cursors, salvage's stage and the area
   where a straddling item is assembled.  [feed] drains every chunk it
   opens before it returns, so one scratch can serve every input its
   owner decodes, one at a time.

   Bytes are read in place from a window ([buf], [start], [len]): the
   slice being fed.  Complete items are decoded straight out of it; the
   bytes of an item that a slice ends inside stay in their slices, held
   by the machine, until a later slice completes the item, which is then
   assembled in the scratch and decoded from there.  Either way a
   verified strict chunk streams through the recycled batch in place,
   and memory is bounded by one frame plus one batch.

   Corruption follows the salvage trichotomy.  Strict mode raises
   {!Trace_stream.Decode_error} at the first malformation and poisons the
   machine.  With [~salvage:true] each chunk is decoded whole first
   ({!Trace_chunk.salvage}), so a damaged v2/v3 chunk is dropped whole —
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

type scratch = {
  batch : Batch.t;  (* the recycled batch every streamed event passes through *)
  mutable handed : bool;  (* [batch] went out: clear it before refilling *)
  plain : Trace_chunk.t;  (* the version-2 chunk cursor *)
  mutable packed : Trace_chunk.t option;  (* the version-3 one, on first use *)
  mutable chunk_open : bool;  (* strict: a cursor holds an undrained chunk *)
  stage : Batch.t ref;  (* salvage: the whole-chunk stage *)
  mutable asm : Bytes.t;  (* where a straddling item is assembled *)
}

(* Bytes of an unfinished item, in a slice the machine holds. *)
type held = { hb : Bytes.t; hpos : int; mutable hlen : int }

type t = {
  cb : callbacks;
  salvage : bool;
  one_trace : bool;  (* files and strings: a second trace is trailing data *)
  max_frame_bytes : int;
  release : Bytes.t -> unit;  (* a fed slice is no longer needed *)
  mutable buf : Bytes.t;  (* the window: pending bytes at [start..start+len) *)
  mutable start : int;
  mutable len : int;
  mutable off : int;  (* input offset of [start] *)
  mutable held : held list;  (* between feeds: newest first *)
  mutable held_len : int;
  mutable need : int;  (* least length the unfinished item can have *)
  mutable state : state;
  mutable failed : string option;
  mutable version : int;
  mutable trace_off : int;  (* input offset of the current trace's header *)
  mutable chunk_ord : int;
  mutable frames : (int * int) list;  (* streamed (paylen, crc), newest first *)
  mutable traces : int;
}

(* Names travel inside records, so a corrupt length varint could demand
   gigabytes; no real routine name comes close. *)
let max_name_bytes = 1 lsl 20

(* Pending bytes a decode pass may legitimately leave behind: an
   incomplete frame (header + capped payload) or footer. *)
let pending_slack = 64 * 1024

(* A scratch keeps at most this much assembly area and salvage stage
   between feeds; one oversized item does not pin its size for good.
   The stage doubles until a chunk is drained, so a full packed chunk
   ({!Trace_packed.max_chunk_events}) leaves it at twice that. *)
let scratch_keep_bytes = 1 lsl 18
let scratch_keep_events = 2 * Trace_packed.max_chunk_events

let scratch ?(batch_size = Batch.default_capacity) () =
  {
    batch = Batch.create ~capacity:(max Trace_packed.pat_kmax batch_size) ();
    handed = false;
    plain = Trace_chunk.create ~version:2;
    packed = None;
    chunk_open = false;
    stage = ref (Batch.create ~capacity:1 ());
    asm = Bytes.empty;
  }

let cursor s version =
  if version < 3 then s.plain
  else
    match s.packed with
    | Some c -> c
    | None ->
      let c = Trace_chunk.create ~version in
      s.packed <- Some c;
      c

(* Forget a pass that will not resume: its batch, and its open chunk. *)
let discard s =
  Batch.clear s.batch;
  s.handed <- false;
  s.chunk_open <- false

let make ~one_trace ~salvage ~max_frame_bytes ~release cb =
  if max_frame_bytes < 1 || max_frame_bytes > 1 lsl 30 then
    invalid_arg "Trace_net.create: max_frame_bytes";
  {
    cb;
    salvage;
    one_trace;
    max_frame_bytes;
    release;
    buf = Bytes.empty;
    start = 0;
    len = 0;
    off = 0;
    held = [];
    held_len = 0;
    need = 0;
    state = Header;
    failed = None;
    version = 0;
    trace_off = 0;
    chunk_ord = 0;
    frames = [];
    traces = 0;
  }

let create ?(salvage = false) ?(max_frame_bytes = 1 lsl 26) ~release cb =
  make ~one_trace:false ~salvage ~max_frame_bytes ~release cb

let pending_bytes t = t.len + t.held_len
let traces_completed t = t.traces
let failure t = t.failed

let set_window t buf start len =
  t.buf <- buf;
  t.start <- start;
  t.len <- len

let clear_window t = set_window t Bytes.empty 0 0

let commit t n =
  t.start <- t.start + n;
  t.len <- t.len - n;
  t.off <- t.off + n

let hungry_for t n =
  t.need <- n;
  raise Need_more

(* Read one pending byte at cursor [cur] (an offset past [start]);
   running out of pending bytes abandons the current item. *)
let u8 t cur =
  if !cur >= t.len then hungry_for t (!cur + 1)
  else begin
    let b = Char.code (Bytes.unsafe_get t.buf (t.start + !cur)) in
    incr cur;
    b
  end

(* Give back every held slice. *)
let drop_held t =
  List.iter (fun h -> t.release h.hb) t.held;
  t.held <- [];
  t.held_len <- 0

(* Hand out the recycled batch; the next step clears it. *)
let ready s =
  Trace_record.validate_batch s.batch;
  s.handed <- true;
  Ready s.batch

(* A chunk-level failure.  A drop record carries the chunk and offset
   itself, so salvage keeps the bare cause; a strict read names them. *)
let chunk_error t ~ord ~off reason =
  if t.salvage then bad "%s" reason
  else bad "chunk %d at byte %d: %s" ord off reason

(* Salvage: damage no frame length bounds ends the read with one drop
   of everything from the item under the cursor on.  A version-1 stream
   has no chunk structure, and the batch under construction (which the
   caller discards) started at an unknown record, so both stay unknown
   there. *)
let lose t reason =
  let v1 = t.version < 2 in
  t.cb.on_drop
    {
      Trace_chunk.drop_chunk = (if v1 then -1 else t.chunk_ord);
      drop_offset = (if v1 then -1 else t.off - t.trace_off);
      drop_bytes = -1;
      drop_events = -1;
      drop_reason = reason;
    };
  commit t t.len;
  drop_held t;
  t.state <- Lost

let step_header t =
  if t.len < 5 then begin
    t.need <- 5;
    Hungry
  end
  else begin
    let v = Trace_container.parse_header (Bytes.sub_string t.buf t.start 5) in
    t.version <- v;
    t.trace_off <- t.off;
    t.chunk_ord <- 0;
    t.frames <- [];
    commit t 5;
    t.state <- (if v >= 2 then Chunks else Records);
    Continue
  end

(* The end marker, once every event before it went out. *)
let end_trace t s n =
  if not (Batch.is_empty s.batch) then ready s
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
let step_records t s =
  let pos = ref t.start in
  Trace_record.fill_batch_bytes s.batch t.buf pos (t.start + t.len);
  commit t (!pos - t.start);
  if Batch.is_full s.batch then ready s
  else
    let cur = ref 0 in
    let varint () = Trace_wire.read_varint (fun () -> u8 t cur) in
    match u8 t cur with
    | exception Need_more -> Hungry
    | tag when tag = Trace_record.end_tag -> end_trace t s !cur
    | tag when tag = Trace_record.def_tag -> (
      match
        let id = varint () in
        let nlen = varint () in
        if nlen < 0 || nlen > max_name_bytes then
          bad "implausible name length %d" nlen;
        if !cur + nlen > t.len then hungry_for t (!cur + nlen);
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
        Batch.unsafe_push s.batch ~tag ~tid ~arg ~len;
        Continue)
    | tag -> bad "unknown record tag %d" tag

(* Salvage decodes a payload whole before delivering any of it, so a
   damaged chunk is dropped whole ({!Trace_chunk.salvage}). *)
let salvage_chunk t s ~pos ~paylen ~crc ~ord ~rel_off =
  match
    Trace_chunk.salvage (cursor s t.version) t.buf ~pos ~len:paylen ~crc
      ~define:t.cb.on_define s.stage
  with
  | () -> if Batch.is_empty !(s.stage) then Continue else Ready !(s.stage)
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
   before the chunk is drained: [feed] moves on to another slice, and
   reassembles into the scratch, only once it is). *)
let step_chunk t s =
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
      if !cur + paylen > t.len then hungry_for t (!cur + paylen);
      `Frame (paylen, !crc)
    end
  with
  | exception Need_more -> Hungry
  | `End -> end_trace t s !cur
  | `Frame (paylen, crc) ->
    let pos = t.start + !cur in
    let rel_off = t.off + !cur - t.trace_off in
    let ord = t.chunk_ord in
    t.chunk_ord <- ord + 1;
    t.frames <- (paylen, crc) :: t.frames;
    commit t (!cur + paylen);
    if t.salvage then salvage_chunk t s ~pos ~paylen ~crc ~ord ~rel_off
    else begin
      (try
         Trace_chunk.start_verified (cursor s t.version) t.buf ~pos
           ~len:paylen ~crc
       with Trace_stream.Decode_error m -> chunk_error t ~ord ~off:rel_off m);
      s.chunk_open <- true;
      Continue
    end

(* Drain the open strict chunk into the recycled batch. *)
let step_open_chunk t s =
  if Trace_chunk.fill (cursor s t.version) ~define:t.cb.on_define s.batch
  then begin
    s.chunk_open <- false;
    Continue
  end
  else ready s

(* The shard-index footer.  A strict framed stream is cross-checked
   against it: a duplicated, deleted or reordered frame is internally
   self-consistent, and the footer is the one record of what the writer
   flushed.  Under salvage (skipped frames make the cross-check
   meaningless) and for version 1 (no frames) only the layout and the
   entries ({!Trace_container.read_entry}) are checked.  The trailer
   offset is trace-relative, so a client streaming a file verbatim
   matches. *)
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
    let sh =
      try Trace_container.read_entry ~version:t.version rb
      with Trace_stream.Decode_error m -> bad "shard index entry %d: %s" k m
    in
    if strict then begin
      let sbytes, scrc = frames.(k) in
      if sh.bytes <> sbytes || sh.crc <> scrc then
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
   connection may follow.  A file or string holds one trace, so there
   every byte after the footer is trailing data, and one after the end
   marker must go on spelling the footer's magic: each pending byte is
   checked as it arrives. *)
let step_trailer t =
  let trailing () =
    if t.state = Trailer then bad "trailing data after end-of-trace marker"
    else bad "trailing data after shard index"
  in
  let footer () = try step_footer t with Need_more -> Hungry in
  if t.len = 0 then Hungry
  else if t.one_trace then begin
    let n = min t.len 4 in
    if
      t.state = Gap
      || Bytes.sub_string t.buf t.start n
         <> String.sub Trace_container.index_magic 0 n
    then trailing ()
    else if n < 4 then begin
      t.need <- n + 1;
      Hungry
    end
    else footer ()
  end
  else if Bytes.get t.buf t.start <> 'A' then trailing ()
  else if t.len < 4 then begin
    t.need <- 4;
    Hungry
  end
  else
    match Bytes.sub_string t.buf t.start 4 with
    | m when m = Trace_container.magic ->
      t.state <- Header;
      Continue
    | m when m = Trace_container.index_magic && t.state = Trailer -> footer ()
    | _ -> trailing ()

(* One step.  [partial] hands out a part-filled batch once the pending
   bytes run out ([feed] delivers what each slice completed).  Under
   salvage, a malformation that escapes a step is beyond its chunk. *)
let step t s ~partial =
  if s.handed then begin
    Batch.clear s.batch;
    s.handed <- false
  end;
  try
    match
      if s.chunk_open then step_open_chunk t s
      else
        match t.state with
        | Header -> step_header t
        | Chunks -> step_chunk t s
        | Records -> step_records t s
        | Trailer | Gap -> step_trailer t
        | Lost ->
          commit t t.len;
          Hungry
    with
    | Hungry when partial && not (Batch.is_empty s.batch) -> ready s
    | r -> r
  with Trace_stream.Decode_error reason when t.salvage && t.state <> Header ->
    discard s;
    lose t reason;
    Continue

let rec pump t s ~partial =
  match step t s ~partial with Continue -> pump t s ~partial | r -> r

let check_failed t =
  match t.failed with
  | Some m -> raise (Trace_stream.Decode_error m)
  | None -> ()

(* Run [f], poisoning the machine if it raises a decode error. *)
let guard t f =
  try f ()
  with Trace_stream.Decode_error m as e ->
    t.failed <- Some m;
    drop_held t;
    raise e

(* End of input.  [feed] leaves no batch behind: each delivers what it
   decoded.  A file or string that ends before a whole header never
   started its trace, and one that ends inside its footer did end its
   trace. *)
let close t =
  check_failed t;
  guard t (fun () ->
      match t.state with
      | Header when t.one_trace -> bad "truncated header"
      | (Trailer | Gap | Lost) when pending_bytes t = 0 -> ()
      | Header when t.off = 0 && pending_bytes t = 0 -> ()
      | state ->
        let m =
          if state = Trailer && t.one_trace then "truncated shard index"
          else "truncated trace (missing end-of-trace marker)"
        in
        if t.salvage && state <> Header then lose t m else bad "%s" m)

(* ------------------------------------------------------------------ *)
(* Slices in, items decoded where they lie *)

(* Keep [bytes[p..p+l)], the start of an unfinished item or more of it.
   New bytes first fill the room left in the newest held slice (the
   machine owns it past its data), so every held slice but the oldest
   and the newest is full: held memory is the item's bytes plus at most
   two slices, however thinly a peer trickles them. *)
let hold t bytes p l =
  if t.held_len + l > t.max_frame_bytes + pending_slack then
    bad "connection buffered %d bytes without a decodable item"
      (t.held_len + l);
  let copied =
    match t.held with
    | h :: _ ->
      let n = min l (Bytes.length h.hb - (h.hpos + h.hlen)) in
      Bytes.blit bytes p h.hb (h.hpos + h.hlen) n;
      h.hlen <- h.hlen + n;
      n
    | [] -> 0
  in
  t.held_len <- t.held_len + l;
  if copied = l then t.release bytes
  else t.held <- { hb = bytes; hpos = p + copied; hlen = l - copied } :: t.held

let rec deliver_all t s =
  match pump t s ~partial:true with
  | Ready b ->
    t.cb.on_batch b;
    deliver_all t s
  | Continue | Hungry -> ()

(* Decode complete items in place, then hold what an unfinished one
   left (nothing is held when this runs). *)
let decode_slice t s bytes pos len =
  set_window t bytes pos len;
  deliver_all t s;
  let rest = t.start and left = t.len in
  clear_window t;
  if left = 0 then t.release bytes
  else hold t bytes rest left

(* Step through the assembly area until the item that began in the held
   bytes is consumed ([true]), or the area runs out first. *)
let rec pump_item t s ~held =
  let r = step t s ~partial:false in
  (match r with Ready b -> t.cb.on_batch b | Continue | Hungry -> ());
  if t.start >= held then true
  else match r with Hungry -> false | Ready _ | Continue -> pump_item t s ~held

let reserve_asm s n ~keep =
  if Bytes.length s.asm < n then begin
    let a = Bytes.create (max n (2 * Bytes.length s.asm)) in
    Bytes.blit s.asm 0 a 0 keep;
    s.asm <- a
  end

(* The held bytes and the front of [bytes] complete an item: copy the
   held bytes and as much of the slice as the item needs (geometrically
   more while its length is unknown) to the assembly area, decode the
   item from there, and go on in place in the slice. *)
let assemble t s bytes pos len =
  let held = t.held_len in
  reserve_asm s held ~keep:0;
  (* [t.held] is newest first: fill the area from its end. *)
  ignore
    (List.fold_left
       (fun o h ->
         Bytes.blit h.hb h.hpos s.asm (o - h.hlen) h.hlen;
         o - h.hlen)
       held t.held);
  let rec attempt taken =
    let want = min len (max (t.need - held) ((2 * taken) + 16)) in
    reserve_asm s (held + want) ~keep:(held + taken);
    Bytes.blit bytes (pos + taken) s.asm (held + taken) (want - taken);
    set_window t s.asm 0 (held + want);
    if pump_item t s ~held then begin
      let used = t.start - held in
      drop_held t;
      decode_slice t s bytes (pos + used) (len - used)
    end
    else if want < len then attempt want
    else begin
      clear_window t;
      hold t bytes pos len
    end
  in
  attempt 0

let trim s =
  if Bytes.length s.asm > scratch_keep_bytes then s.asm <- Bytes.empty;
  if Batch.capacity !(s.stage) > scratch_keep_events then
    s.stage := Batch.create ~capacity:1 ()

(* Every fed slice comes back through [release] exactly once: here, or
   when the item it holds bytes of completes or the machine fails.  An
   exception a callback raises poisons the machine too: the scratch it
   interrupted serves other inputs, so the pass cannot resume. *)
let feed t s bytes ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length bytes then
    invalid_arg "Trace_net.feed";
  match
    check_failed t;
    guard t (fun () ->
        if t.held = [] then decode_slice t s bytes pos len
        else if t.held_len + len < t.need then hold t bytes pos len
        else assemble t s bytes pos len)
  with
  | () -> trim s
  | exception e ->
    if t.failed = None then begin
      t.failed <- Some ("decode interrupted: " ^ Printexc.to_string e);
      drop_held t
    end;
    clear_window t;
    discard s;
    t.release bytes;
    raise e

(* ------------------------------------------------------------------ *)
(* Files and strings: one trace, fed from an input *)

(* Slices are recycled: the machine releases each one it lets go of,
   and the next read goes into it, so a file costs the slices an
   unfinished item is still in plus the one being read. *)
let read_input ~salvage ~max_frame_bytes ~chunk_bytes s cb input =
  let spare = ref [] in
  let t =
    make ~one_trace:true ~salvage ~max_frame_bytes
      ~release:(fun b -> spare := b :: !spare)
      cb
  in
  let slice = max 1 chunk_bytes in
  let rec loop () =
    let b =
      match !spare with
      | b :: rest ->
        spare := rest;
        b
      | [] -> Bytes.create slice
    in
    match input b 0 slice with
    | 0 -> close t
    | n ->
      feed t s b ~pos:0 ~len:n;
      loop ()
  in
  loop ()
