(** Thread-scheduling policies for the interpreter.

    The scheduler owns the run queues: the interpreter hands it every
    thread that becomes runnable ({!enqueue}) or is preempted at the end
    of its slice ({!requeue}) and asks it for the next thread to run
    ({!next}).  This stateful shape is what lets policies keep private
    structure — per-worker deques for work stealing, a completion queue
    for the async event loop — instead of picking an index into a ready
    vector the interpreter owns.

    Policies:
    - [Round_robin] rotates through runnable threads FIFO with a fixed
      event budget per turn.
    - [Random_preemptive] picks the next thread and its slice length at
      random (seeded) — used by the scheduler-sensitivity experiment.
    - [Serialized] runs each thread until it blocks or exits, mimicking
      Valgrind's big-lock serialization.  Its slice is the {!max_slice}
      sentinel, never [max_int], so budget arithmetic that adds a slice
      to an event counter cannot overflow.
    - [Work_stealing] multiplexes runnable threads over [workers]
      virtual cores, one per-core deque: a new or woken thread lands on
      its home deque ([tid mod workers]), a preempted thread goes back
      to the core that ran it, and a core whose deque is empty steals
      the oldest half of a seeded-random victim's deque (manticore's
      local-deque discipline, {!Deque}).
      Requires [workers >= 2] — with a single deque the owner-LIFO pop
      could starve older threads, since there is no thief to drain the
      old end.
    - [Async_io] is an event loop: a thread that performs device I/O
      ({!note_io}) loses the rest of its slice and parks on a completion
      queue for a seeded delay of 1..[io_delay] scheduling turns;
      completions wake in deadline order onto a FIFO run queue.  When
      every runnable thread is parked the loop fast-forwards to the
      earliest completion, so I/O waits never deadlock the VM.

    Every policy is a deterministic function of its creation RNG, so
    same-seed runs replay byte-identical traces. *)

type policy =
  | Round_robin of { slice : int }
  | Random_preemptive of { min_slice : int; max_slice : int }
  | Serialized
  | Work_stealing of { workers : int; slice : int }
  | Async_io of { slice : int; io_delay : int }

type t

(** Upper bound on any slice (2^30).  [Serialized] returns exactly this
    sentinel; every other policy's slice is validated against it at
    {!create} time.  Guaranteed well below [max_int / 2] so
    [events + slice] never wraps. *)
val max_slice : int

(** [create policy rng] is a fresh scheduler state with empty queues.
    @raise Invalid_argument on out-of-range parameters (non-positive or
    over-[max_slice] slices, [workers < 2], [io_delay < 1]). *)
val create : policy -> Aprof_util.Rng.t -> t

(** [slice t] is the event budget for the next turn, in
    [1, ]{!max_slice}[]. *)
val slice : t -> int

(** [enqueue t tid] makes [tid] runnable: a newly spawned thread or one
    woken by a semaphore post, barrier release, or join. *)
val enqueue : t -> int -> unit

(** [requeue t tid] returns a thread preempted at the end of its slice.
    Under [Async_io], a thread that called {!note_io} during the slice
    parks on the completion queue instead of the run queue. *)
val requeue : t -> int -> unit

(** [next t] dequeues the next thread to run, [None] when no thread is
    queued anywhere (the interpreter's deadlock signal).  Every returned
    tid was previously {!enqueue}d or {!requeue}d and is returned
    exactly once per enqueue. *)
val next : t -> int option

(** [pending t] is the number of queued threads, including any parked on
    the async completion queue. *)
val pending : t -> int

(** [note_io t tid] records that the running thread [tid] performed
    device I/O this slice.  Only [Async_io] reacts: {!must_yield} turns
    true and the following {!requeue} parks the thread. *)
val note_io : t -> int -> unit

(** [must_yield t] is true when the current slice should end now
    (async I/O submitted); always false for synchronous policies. *)
val must_yield : t -> bool

val policy_name : policy -> string

(** The [Work_stealing] policy's per-core deque.  The owner pushes and
    pops at the newest end; thieves take the oldest half.  Not
    thread-safe: the VM steps every virtual core on one thread. *)
module Deque : sig
  type 'a t

  val create : unit -> 'a t
  val push : 'a t -> 'a -> unit

  (** [pop t] removes the newest item, [None] when empty. *)
  val pop : 'a t -> 'a option

  (** [steal_half t] removes the oldest [ceil (length t / 2)] items
      and returns them oldest first ([[]] when empty). *)
  val steal_half : 'a t -> 'a list

  val length : 'a t -> int
end
