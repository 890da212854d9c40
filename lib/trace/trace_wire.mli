(** Wire primitives shared by the codec layers: canonical zigzag varints
    for record fields, plain canonical varints for frame lengths, and
    little-endian fixed-width fields.  Everything raises
    {!Trace_stream.Decode_error} (via {!bad}) on malformed input; both
    varint flavors reject non-canonical encodings, so each value has
    exactly one byte representation. *)

(** [bad fmt ...] raises {!Trace_stream.Decode_error} with the formatted
    message. *)
val bad : ('a, unit, string, 'b) format4 -> 'a

(** {1 Zigzag varints (record fields)} *)

val add_varint : Buffer.t -> int -> unit

(** [read_varint read_byte] decodes one zigzag varint; [read_byte]
    yields the next byte or [-1] at end of input. *)
val read_varint : (unit -> int) -> int

(** Guard shared by every varint decoder: rejects a byte whose
    significant bits would overflow the int at [shift]. *)
val check_varint_bits : int -> int -> unit

(** Buffer fast path: decode a zigzag varint at [!pos], advancing it.
    The caller must guarantee a complete varint fits (see
    {!max_record_bytes}); bytes are read with [unsafe_get]. *)
val read_varint_bytes_fast : Bytes.t -> int ref -> int

(** Bounds-checked twin of {!read_varint_bytes_fast} for buffer tails
    where the margin no longer holds; never reads at or past [limit]. *)
val read_varint_bytes_checked : Bytes.t -> int ref -> int -> int

(** Upper bound on one encoded record: 1 tag byte + 3 varints with
    margin.  The bulk decode loops use [limit - max_record_bytes] as the
    last safe start offset for unchecked reads. *)
val max_record_bytes : int

(** {1 Plain varints (frame lengths)} *)

val add_uvarint : Buffer.t -> int -> unit
val uvarint_size : int -> int
val read_uvarint : (unit -> int) -> int

(** {1 Little-endian fixed-width fields} *)

val add_le32 : Buffer.t -> int -> unit
val add_le64 : Buffer.t -> int -> unit
