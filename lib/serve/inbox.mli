(** Bounded per-connection byte queue with producer backpressure.

    The reader thread of one connection pushes received slices; the
    worker that owns the connection pops and decodes them.  {!push}
    blocks while the queued payload exceeds the capacity, which stops
    the reader from calling [read] — the kernel socket buffer and then
    the peer absorb the pressure, so the bytes queued for a connection
    stay bounded however slow the consumer is.  An empty queue accepts
    one slice of any size, so a producer can never deadlock on capacity
    alone.

    Consumers never block: {!pop} is non-blocking (the server's
    scheduler wakes a worker when a connection has queued bytes).
    Buffers cycle through an internal free list via {!take_buffer} /
    {!recycle}, so steady-state ingest allocates no fresh slices. *)

type item = Data of Bytes.t * int | Eof

type t

(** [create ()] builds an inbox.
    @param capacity queued-payload bound in bytes (default 256 KiB)
    @param buffer_bytes size of recycled read slices (default 64 KiB) *)
val create : ?capacity:int -> ?buffer_bytes:int -> unit -> t

(** A slice for the producer's next [read]: recycled if available. *)
val take_buffer : t -> Bytes.t

(** Return a popped slice to the free list. *)
val recycle : t -> Bytes.t -> unit

(** [push t b n] queues the first [n] bytes of [b], blocking while the
    queue is non-empty and over capacity.  After {!close}, slices are
    silently dropped (the connection is dead). *)
val push : t -> Bytes.t -> int -> unit

(** Queue the end-of-stream marker. *)
val push_eof : t -> unit

(** Non-blocking pop; [None] when nothing is queued. *)
val pop : t -> item option

(** Consumer side is gone: drop queued items and recycled slices,
    unblock and neuter producers.  Later {!recycle}d slices are dropped
    too, so a closed inbox holds no buffers. *)
val close : t -> unit

val queued_bytes : t -> int
val is_empty : t -> bool
