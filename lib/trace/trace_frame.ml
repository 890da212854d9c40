(* Frame layer: length + CRC32C framing of chunk payloads (format
   versions >= 2) and the end-of-trace marker.  A frame is

     frame := paylen:uvarint crc32c:le32 payload[paylen]

   [paylen] is never 0, so the single-zero end marker is unambiguous.
   The CRC covers the stored payload bytes exactly as they sit in the
   file — for version 3 that is the transformed payload, so integrity is
   checked before the transform layer ever touches the bytes. *)

module Crc32c = Aprof_util.Crc32c

let bad = Trace_wire.bad
let default_chunk = 64 * 1024

(* A frame length takes at most ten varint bytes, but anything near
   that is corruption, not a trace: cap what a reader will allocate. *)
let max_chunk_payload = 1 lsl 30

(* [add_frame buf payload] frames one chunk payload onto [buf],
   returning the CRC it stored (for the shard index). *)
let add_frame buf payload =
  let n = String.length payload in
  let crc = Crc32c.digest_string payload ~pos:0 ~len:n in
  Trace_wire.add_uvarint buf n;
  Trace_wire.add_le32 buf crc;
  Buffer.add_string buf payload;
  crc

(* [check_payload bytes ~pos ~len ~crc] verifies a chunk's checksum
   before any decoding touches the bytes.  The message is the bare
   cause: a drop record carries the chunk and offset itself, and strict
   readers prefix them. *)
let check_payload bytes ~pos ~len ~crc =
  let computed = Crc32c.digest bytes ~pos ~len in
  if computed <> crc then
    bad "checksum mismatch (stored %08x, computed %08x)" crc computed
