(** Instrumentation events.

    This is the vocabulary of Section 3 of the paper: routine activations
    and completions, memory accesses, kernel-mediated I/O
    ([User_to_kernel]/[Kernel_to_user]), and thread switches — extended
    with the events needed by the comparator tools of Section 4
    (basic-block costs for callgrind/aprof, lock operations for helgrind,
    heap events for memcheck). *)

type tid = int
type addr = int
type routine = int

type t =
  | Call of { tid : tid; routine : routine }
      (** Thread [tid] activates [routine]. *)
  | Return of { tid : tid }
      (** Thread [tid] completes its topmost pending activation. *)
  | Read of { tid : tid; addr : addr }  (** Load of one memory cell. *)
  | Write of { tid : tid; addr : addr }  (** Store to one memory cell. *)
  | Block of { tid : tid; units : int }
      (** [units] basic blocks executed by [tid]; the cost metric. *)
  | User_to_kernel of { tid : tid; addr : addr; len : int }
      (** The kernel reads [len] cells starting at [addr] on behalf of
          [tid] (e.g. [write], [sendto]). *)
  | Kernel_to_user of { tid : tid; addr : addr; len : int }
      (** The kernel writes [len] cells starting at [addr] on behalf of
          [tid] (e.g. [read], [recvfrom]); the data is external input. *)
  | Acquire of { tid : tid; lock : int }
      (** [tid] acquires lock/semaphore [lock] (or passes a wait). *)
  | Release of { tid : tid; lock : int }
      (** [tid] releases lock/semaphore [lock] (or posts a signal). *)
  | Alloc of { tid : tid; addr : addr; len : int }
      (** Heap allocation of [len] cells at [addr]. *)
  | Free of { tid : tid; addr : addr; len : int }
      (** Heap release of the block at [addr]. *)
  | Thread_start of { tid : tid }
  | Thread_exit of { tid : tid }
  | Switch_thread of { tid : tid }
      (** Control switches to thread [tid].  Inserted by the trace merge
          (or the VM scheduler) between events of different threads. *)

(** Decode-edge bounds on identifier payloads.  Thread ids are kept
    dense (and packed into 16-bit epoch fields) by the tools, and lock
    ids are packed below bit 31 by the lockset memo tables, so every
    decoder rejects out-of-range values as decode errors — consumers
    past the edge carry no per-access guard. *)

val max_tid : int

val max_lock : int

(** [tid e] is the thread associated with [e]; for [Switch_thread] it is
    the incoming thread. *)
val tid : t -> tid

(** [is_switch e] holds for [Switch_thread]. *)
val is_switch : t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** [to_line e] serializes [e] on one line; [of_line] parses it back.
    [of_line] returns [Error msg] on malformed input. *)
val to_line : t -> string

val of_line : string -> (t, string) result

val equal : t -> t -> bool

(** Packed event batches: the zero-allocation hot-path representation.

    A batch is a reusable struct-of-arrays buffer — per event one tag,
    one thread id, one primary payload ([args]: routine, address, units
    or lock id) and one secondary payload ([lens]: the length of range
    events) — plus a length cursor.  Producers (the VM interpreter, the
    binary decoder) fill a recycled batch with raw ints; consumers
    (profilers, tools, the encoder) dispatch on the int tag and read the
    arrays directly, so no [Event.t] variant is ever constructed on the
    hot path.  {!pack}ing/unpacking to [Event.t] happens only at the
    edges ({!push}, {!get}, {!iter_events}).  A whole trace is a
    sequence of batches ({!Trace.t}). *)
module Batch : sig
  type event = t

  type t

  val default_capacity : int

  (** [create ~capacity ()] is an empty batch holding at most [capacity]
      events (default {!default_capacity}).
      @raise Invalid_argument when [capacity <= 0]. *)
  val create : ?capacity:int -> unit -> t

  val capacity : t -> int
  val length : t -> int
  val is_empty : t -> bool
  val is_full : t -> bool

  (** [clear b] resets the cursor; storage is recycled. *)
  val clear : t -> unit

  (** {2 Tags}

      The int tag stored per event.  The numbering is shared with the
      binary codec's record tags, so decode can store the tag byte
      unchanged. *)

  val tag_call : int
  val tag_return : int
  val tag_read : int
  val tag_write : int
  val tag_block : int
  val tag_user_to_kernel : int
  val tag_kernel_to_user : int
  val tag_acquire : int
  val tag_release : int
  val tag_alloc : int
  val tag_free : int
  val tag_thread_start : int
  val tag_thread_exit : int
  val tag_switch_thread : int
  val max_tag : int

  (** [tag_has_arg tag] — does the event kind carry a primary payload
      (routine / addr / units / lock)? *)
  val tag_has_arg : int -> bool

  (** [tag_has_len tag] — does the event kind carry a length? *)
  val tag_has_len : int -> bool

  (** Bitmask forms of {!tag_has_arg}/{!tag_has_len}: bit [tag] is set
      when the field exists.  For decode loops that cannot afford a call
      per record; [tag_has_arg tag = (arg_mask lsr tag) land 1 = 1]. *)

  val arg_mask : int
  val len_mask : int

  (** Bit [tag] set when the payload is a memory address (Read/Write,
      kernel transfers, Alloc/Free). *)
  val addr_mask : int

  (** Bit [tag] set when the payload is a lock id (Acquire/Release). *)
  val lock_mask : int

  (** [validate b] checks every event's thread id against
      [[0, max_tid]], every address-carrying event for a non-negative
      address, and every lock-carrying event against [[0, max_lock]].
      Decoders call this once per batch at the trust boundary, so
      consumers can index page tables, dense per-thread state and
      lockset memo keys with the raw fields and no per-access guard.
      @raise Invalid_argument on the first out-of-range field, naming
      the field and its value but not its position: that is a row of a
      recycled batch, which depends on where the reader ended batches. *)
  val validate : t -> unit

  val tag_of_event : event -> int

  (** {2 Raw field access}

      The backing arrays; only indices [< length b] are meaningful.
      Consumers must treat them as read-only. *)

  val tags : t -> int array
  val tids : t -> int array
  val args : t -> int array
  val lens : t -> int array

  (** [unsafe_push b ~tag ~tid ~arg ~len] appends raw fields without a
      capacity check: the caller must guarantee [not (is_full b)]. *)
  val unsafe_push : t -> tag:int -> tid:int -> arg:int -> len:int -> unit

  (** [unsafe_set_length b n] declares that rows [0..n-1] of the backing
      arrays are valid, for bulk fillers that bypass {!unsafe_push}; the
      caller must have written all four arrays up to [n]. *)
  val unsafe_set_length : t -> int -> unit

  (** [iter f b] — [f tag tid arg len] per event, allocation-free. *)
  val iter : (int -> int -> int -> int -> unit) -> t -> unit

  (** [filter_in_place p b] keeps the events for which [p tag tid]
      holds, in order, compacting the batch in place.  [p] sees every
      event exactly once, in order, so it may keep state. *)
  val filter_in_place : (int -> int -> bool) -> t -> unit

  (** {2 Pack/unpack edges} *)

  (** [push b ev] packs one event.
      @raise Invalid_argument when the batch is full. *)
  val push : t -> event -> unit

  (** [get b i] unpacks the [i]-th event (constructs a variant). *)
  val get : t -> int -> event

  (** [iter_events f b] unpacks each event in order. *)
  val iter_events : (event -> unit) -> t -> unit

  (** [append dst src ~pos ~len] copies events [pos .. pos + len - 1] of
      [src] onto the end of [dst], field array by field array.
      @raise Invalid_argument when the range exceeds [src] or [dst]
      lacks room for it. *)
  val append : t -> t -> pos:int -> len:int -> unit
end
