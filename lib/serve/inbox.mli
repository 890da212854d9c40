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
    Slices come from a {!pool} via {!take_buffer} and go back to it via
    {!recycle}; a daemon shares one pool among all its inboxes, so
    steady-state ingest allocates no fresh slices. *)

type item = Data of Bytes.t * int | Eof

(** Idle read slices of one size, shared by any number of inboxes and
    threads. *)
type pool

(** [pool ~buffer_bytes ~max_idle] is an empty pool of [buffer_bytes]
    slices that keeps at most [max_idle] of them idle: it allocates only
    when empty, and drops slices given back while full. *)
val pool : buffer_bytes:int -> max_idle:int -> pool

type t

(** [create pool] builds an inbox whose slices come from [pool].
    @param capacity queued-payload bound in bytes (default 256 KiB) *)
val create : ?capacity:int -> pool -> t

(** A slice for the producer's next [read]: recycled if available. *)
val take_buffer : t -> Bytes.t

(** Return a slice to the inbox's pool — also after {!close}. *)
val recycle : t -> Bytes.t -> unit

(** [push t b n] queues the first [n] bytes of [b], blocking while the
    queue is non-empty and over capacity.  After {!close}, slices go
    straight back to the pool (the connection is dead). *)
val push : t -> Bytes.t -> int -> unit

(** Queue the end-of-stream marker. *)
val push_eof : t -> unit

(** Non-blocking pop; [None] when nothing is queued. *)
val pop : t -> item option

(** Consumer side is gone: give queued slices back to the pool,
    unblock and neuter producers.  A closed inbox holds no buffers. *)
val close : t -> unit

val queued_bytes : t -> int
val is_empty : t -> bool
