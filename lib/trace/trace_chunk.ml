(* Chunk layer: the one payload decoder.  A cursor over one CRC-verified
   chunk payload of a given trace version — plain records for versions 1
   and 2 ({!Trace_record}), a transform envelope around a packed event
   stream for version 3 ({!Trace_transform}, then {!Trace_packed}).
   Every reader decodes payloads through [start] and [fill]: the
   socket/file/string machine ({!Trace_net}), the seeking chunk
   sessions, and salvage, whose all-or-nothing stage is [drain].  The
   drop record every salvage path reports lives here too, below
   {!Trace_net}. *)

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

(* [start c bytes ~pos ~len] opens the verified payload
   [bytes[pos..pos+len)].  The cursor reads the bytes in place (or, for
   an entropy-coded payload, from its own scratch), so they must stay
   untouched until the chunk is drained. *)
let start c bytes ~pos ~len =
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
   drained.  [keep] filters event records inside the decode loop. *)
let fill c ?keep ~define b =
  match c with
  | Plain p -> Trace_record.fill_chunk ?keep ~define b p.buf p.pos p.limit
  | Packed k -> Trace_packed.fill k.dec ?keep ~define b

(* Decode the started chunk completely into [!stage], doubling the
   stage as it fills, and validate it: salvage delivers a chunk whole or
   not at all. *)
let drain c ~define stage =
  Batch.clear !stage;
  while not (fill c ~define !stage) do
    let b = !stage in
    let cap = Batch.capacity b in
    if cap >= max_chunk_events then
      bad "chunk decodes to more than %d events" max_chunk_events;
    let grown = Batch.create ~capacity:(min (2 * cap) max_chunk_events) () in
    let len = Batch.length b in
    Array.blit (Batch.tags b) 0 (Batch.tags grown) 0 len;
    Array.blit (Batch.tids b) 0 (Batch.tids grown) 0 len;
    Array.blit (Batch.args b) 0 (Batch.args grown) 0 len;
    Array.blit (Batch.lens b) 0 (Batch.lens grown) 0 len;
    Batch.unsafe_set_length grown len;
    stage := grown
  done;
  Trace_record.validate_batch !stage
