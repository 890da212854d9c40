(** Synchronization built on top of the DSL primitives.

    [Mutex] wraps a binary semaphore.  [Channel] is the classic bounded
    producer-consumer buffer (Figure 2 of the paper, generalized to a
    ring buffer): payload and ring indices live in *simulated memory*, so
    data flowing through a channel is genuine shared-memory communication
    and shows up as thread-induced input in the drms. *)

module Mutex : sig
  type t

  val create : unit -> t Program.t
  val lock : t -> unit Program.t
  val unlock : t -> unit Program.t

  (** [with_lock m body] is lock; body; unlock. *)
  val with_lock : t -> 'a Program.t -> 'a Program.t
end

module Channel : sig
  type t

  (** [create capacity] allocates the ring storage and semaphores.
      @raise Invalid_argument if [capacity <= 0] (at build time). *)
  val create : int -> t Program.t

  (** [send ch v] blocks while the channel is full, then enqueues [v]. *)
  val send : t -> Program.value -> unit Program.t

  (** [recv ch] blocks while the channel is empty, then dequeues. *)
  val recv : t -> Program.value Program.t

  (** [try_recv ch] dequeues if a value is ready, without blocking. *)
  val try_recv : t -> Program.value option Program.t
end
