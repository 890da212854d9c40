(** Execution traces.

    A [Trace.t] is the totally ordered sequence of events the profilers
    consume: per-thread traces are merged on their timestamps (ties broken
    arbitrarily, Section 3) and [Switch_thread] events are inserted between
    any two operations performed by different threads.

    The trace is packed: a sequence of sealed, full {!Event.Batch.t}s of
    {!Event.Batch.default_capacity} events each, plus one open tail.
    {!Aprof_vm.Interp.run} appends the interpreter's emission batches
    field array by field array, and {!replay} hands each stored batch to
    a consumer's [on_batch] without copying or unpacking anything.  The
    event view ({!get}, {!iter}, {!to_list}, {!of_list}, {!push}) packs
    and unpacks at the edge, for tests, text I/O and printing. *)

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

(** {1 Event view} *)

(** [get t i] unpacks the [i]-th event.
    @raise Invalid_argument when [i] is out of bounds. *)
val get : t -> int -> Event.t

val iter : (Event.t -> unit) -> t -> unit
val iteri : (int -> Event.t -> unit) -> t -> unit
val of_list : Event.t list -> t
val to_list : t -> Event.t list

(** An event stamped with the logical time at which its thread issued it.
    Within one thread trace, timestamps must be non-decreasing. *)
type timestamped = { ts : int; ev : Event.t }

type thread_trace = timestamped Aprof_util.Vec.t

(** Tie-breaking policy for events of different threads bearing the same
    timestamp.  [`Lowest_tid] is deterministic; [`Rng] picks uniformly
    among the tied threads, modelling the "no assumption can be made"
    clause of Section 3. *)
type tie_break = [ `Lowest_tid | `Rng of Aprof_util.Rng.t ]

(** [merge ~tie_break threads] merges per-thread traces into a single
    totally ordered trace, preserving each thread's internal order and
    inserting [Switch_thread] events between events of different threads
    (including one before the very first event).
    @raise Invalid_argument if a thread trace has decreasing timestamps or
    contains an event whose [Event.tid] differs from the declared thread. *)
val merge : tie_break:tie_break -> (Event.tid * thread_trace) list -> t

(** [split t] recovers per-thread traces from a merged trace, stamping each
    event with its position in [t]; [Switch_thread] events are dropped.
    [merge] of the result rebuilds [t] up to switch placement. *)
val split : t -> (Event.tid * thread_trace) list

(** [well_formed t] checks structural sanity — balanced call/return per
    thread, non-negative addresses, positive lengths, no events from a
    thread after its [Thread_exit] — and returns human-readable violations
    (empty when the trace is well formed). *)
val well_formed : t -> string list

(** Per-constructor counts and simple shape statistics. *)
type stats = {
  events : int;
  calls : int;
  reads : int;
  writes : int;
  blocks : int;
  block_units : int;
  user_to_kernel : int;
  kernel_to_user : int;
  switches : int;
  threads : int;
  max_call_depth : int;
  distinct_addresses : int;
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

(** [save oc t] / [load ic] (de)serialize a trace, one event per line.
    [load] fails with [Error] on the first malformed line. *)
val save : out_channel -> t -> unit

val load : in_channel -> (t, string) result
