(* Chunk layer: the one payload decoder.  A cursor over one CRC-verified
   chunk payload of a given trace version — plain records for versions 1
   and 2 ({!Trace_record}), a transform envelope around a packed event
   stream for version 3 ({!Trace_transform}, then {!Trace_packed}).
   Every reader opens payloads through [start_verified] and decodes
   them through [fill]: the socket/file/string machine ({!Trace_net}),
   the seeking chunk sessions, and salvage, whose all-or-nothing step
   is [salvage].  The drop record every salvage path reports lives here
   too, below {!Trace_net}. *)

module Batch = Event.Batch

let bad = Trace_wire.bad

type drop = {
  drop_chunk : int;
  drop_offset : int;
  drop_bytes : int;
  drop_events : int;
  drop_reason : string;
}

(* How far one chunk may expand when decoded whole: a bound on what a
   corrupt repeat count can make salvage allocate.  A packed chunk's
   own decoder rejects it at {!Trace_packed.max_chunk_events}, so its
   stage never grows past twice that. *)
let max_chunk_events = 1 lsl 27

type t =
  | Plain of { mutable buf : Bytes.t; pos : int ref; mutable limit : int }
  | Packed of { dec : Trace_packed.decoder; scratch : Bytes.t ref }

let create ~version =
  if version >= 3 then
    Packed { dec = Trace_packed.create_decoder (); scratch = ref Bytes.empty }
  else Plain { buf = Bytes.empty; pos = ref 0; limit = 0 }

(* [start_verified c bytes ~pos ~len ~crc] checks the stored payload
   [bytes[pos..pos+len)] against its CRC32C ([crc < 0]: a version-1
   chunk carries none) before it opens it: the fill loops trust these
   bytes.  The cursor reads them in place (or, for an entropy-coded
   payload, from its own scratch), so they must stay untouched until
   the chunk is drained.  Failures raise the bare cause; strict readers
   prefix the chunk's position. *)
let start_verified c bytes ~pos ~len ~crc =
  if crc >= 0 then Trace_frame.check_payload bytes ~pos ~len ~crc;
  match c with
  | Plain p ->
    p.buf <- bytes;
    p.pos := pos;
    p.limit <- pos + len
  | Packed k ->
    let pbuf, ppos, plen =
      Trace_transform.open_payload bytes ~pos ~len ~scratch:k.scratch
    in
    Trace_packed.start_chunk k.dec pbuf ~pos:ppos ~len:plen

(* Fill [b] until it is full or the chunk is drained; [true] once
   drained. *)
let fill c ~define b =
  match c with
  | Plain p -> Trace_record.fill_chunk ~define b p.buf p.pos p.limit
  | Packed k -> Trace_packed.fill k.dec ~define b

(* Salvage's step over one stored payload: verify and open it, decode
   it completely into [!stage] (doubling the stage as it fills),
   validate it, and hold it to the index's count when [events] gives
   one.  Its definitions reach [define] only once the chunk proved
   clean: salvage delivers a chunk whole or not at all. *)
let salvage c bytes ~pos ~len ~crc ?events ~define stage =
  start_verified c bytes ~pos ~len ~crc;
  let defs = ref [] in
  let stage_def id name = defs := (id, name) :: !defs in
  Batch.clear !stage;
  while not (fill c ~define:stage_def !stage) do
    let b = !stage in
    let cap = Batch.capacity b in
    if cap >= max_chunk_events then
      bad "chunk decodes to more than %d events" max_chunk_events;
    let grown = Batch.create ~capacity:(min (2 * cap) max_chunk_events) () in
    Batch.append grown b ~pos:0 ~len:(Batch.length b);
    stage := grown
  done;
  Trace_record.validate_batch !stage;
  (match events with
  | Some n when Batch.length !stage <> n ->
    bad "decoded %d events where the index says %d" (Batch.length !stage) n
  | _ -> ());
  List.iter (fun (id, name) -> define id name) (List.rev !defs)
