(** Socket-fed ATRC decoding.

    An incremental, sans-IO state machine for the bytes of one
    connection: {!feed} it arbitrary slices as they arrive and it
    decodes complete items — framed chunks (versions 2/3), bare records
    (version 1), end-of-trace markers, shard-index footers — driving the
    callbacks as it goes.  The wire format is exactly the file format,
    so a client can stream a recorded trace file verbatim, and several
    traces may follow back-to-back on one connection (each delimited by
    its own header and end marker).

    Peak memory is one frame plus one batch (plus the feed slice):
    bytes are held only until the item under the cursor is complete,
    then decoded and released, and decoded events pass through one
    recycled batch.  The machine never queues decoded work — callbacks
    run inside {!feed} — so callers implement backpressure by not
    feeding.

    Decoding and corruption follow {!Trace_codec.read}.  In strict mode
    (the default) each CRC-verified v2/v3 chunk is streamed through the
    recycled batch as the file reader streams it, so a chunk that
    decodes to many events arrives as several batches, and the first
    malformation fails the connection.  With [~salvage:true] each chunk
    is decoded whole before any of it is delivered, so a damaged v2/v3
    chunk is dropped whole and reported (the frame length
    re-synchronizes) while a good one arrives as one batch of any size;
    damage to the framing itself, and any version-1 malformation,
    remains fatal.  After a failure the machine is poisoned: every later
    call re-raises. *)

type callbacks = {
  on_batch : Event.Batch.t -> unit;
      (** Validated decoded events, in stream order: at most
          [batch_size] of them, except that salvage mode delivers each
          v2/v3 chunk whole.  The batch is recycled: it is valid only
          until the callback returns. *)
  on_define : int -> string -> unit;
      (** A routine-name definition, in stream order, always before the
          first delivered batch that could reference it. *)
  on_trace_end : unit -> unit;
      (** The end-of-trace marker was consumed; every batch of that
          trace has been delivered. *)
  on_drop : Trace_codec.drop -> unit;
      (** Salvage mode only: a damaged chunk was skipped.  Offsets are
          relative to the current trace's first byte, so they line up
          with file offsets when the client streams a file verbatim. *)
}

type t

(** [create callbacks] is a fresh connection decoder.
    @param salvage drop damaged v2/v3 chunks (reported through
    [on_drop]) instead of failing the connection (default [false]).
    @param max_frame_bytes largest acceptable chunk payload; a frame
    announcing more is treated as framing damage and fails the
    connection even under salvage (default 64 MiB).
    @param batch_size capacity of the recycled batch every strict-mode
    event passes through, raised to 16 (the longest packed tag pattern)
    if smaller (default {!Event.Batch.default_capacity}).  Batches are
    delivered when full, at each end-of-trace marker and at the end of
    every {!feed}. *)
val create : ?salvage:bool -> ?max_frame_bytes:int -> ?batch_size:int ->
  callbacks -> t

(** [feed t bytes ~pos ~len] appends one received slice and decodes as
    far as the accumulated bytes allow, running callbacks synchronously.
    @raise Trace_stream.Decode_error on malformed input (and on every
    call after one), with the machine poisoned.
    @raise Invalid_argument when [pos]/[len] do not delimit a valid
    range of [bytes]. *)
val feed : t -> Bytes.t -> pos:int -> len:int -> unit

(** [close t] signals end of stream.  Clean only between traces (or on
    a connection that carried no bytes at all).
    @raise Trace_stream.Decode_error when the stream ends mid-trace or
    with undecodable bytes pending — the truncation report a file
    reader would give. *)
val close : t -> unit

(** Bytes currently buffered awaiting a complete item — bounded by one
    frame header + payload. *)
val pending_bytes : t -> int

(** Traces fully decoded (end marker consumed) so far. *)
val traces_completed : t -> int

(** The poisoning failure, if the machine has one. *)
val failure : t -> string option
