(** Execution traces.

    A [Trace.t] is the totally ordered sequence of events the profilers
    consume: the threads' operations interleaved (ties between threads
    broken arbitrarily, Section 3), with [Switch_thread] events inserted
    between any two operations performed by different threads.

    The trace is packed: a sequence of sealed, full {!Event.Batch.t}s of
    {!Event.Batch.default_capacity} events each, plus one open tail.
    {!Aprof_vm.Interp.run} appends the interpreter's emission batches
    field array by field array, and {!replay} hands each stored batch to
    a consumer's [on_batch] without copying or unpacking anything.
    {!push} packs one event at the edge. *)

type t

(** [create ()] is an empty trace. *)
val create : unit -> t

val length : t -> int

(** [push t ev] packs one event onto the end of [t]. *)
val push : t -> Event.t -> unit

(** [add_batch t b] appends the events of [b] (copied; [b] stays the
    caller's). *)
val add_batch : t -> Event.Batch.t -> unit

(** [replay t f] calls [f] on each stored batch, in order: the one path
    from a trace to a consumer.  The batches are the trace's own storage,
    so [f] must neither retain nor modify them. *)
val replay : t -> (Event.Batch.t -> unit) -> unit

(** [iter_raw t ~pos ~len f] calls [f tag tid arg len] on events [pos ..
    pos + len - 1] in the packed layout, unpacking nothing.
    @raise Invalid_argument when the range exceeds the trace. *)
val iter_raw :
  t -> pos:int -> len:int -> (int -> int -> int -> int -> unit) -> unit
