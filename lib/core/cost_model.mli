(** The cost metric.

    Like the paper (Section 4.1), the cost of a routine activation is the
    number of executed basic blocks, which yields the same trends as
    running time with much lower variance.  Every profiler and comparator
    tool derives costs from trace events through this single definition so
    their figures are comparable.

    [simulated_time_ns] converts a basic-block count into a noisy
    simulated running time, modelling the effect shown in Figure 10
    (timing measurements produce scattered plots; basic blocks produce
    clean ones). *)

(** [cost_increment ~tag ~arg] is the number of basic blocks implied by
    a packed event ({!Aprof_trace.Event.Batch} tag [tag], payload [arg]):
    [arg] units for a [Block] event, 1 for each memory access and each
    call (address computation and call dispatch execute a block), 0
    otherwise. *)
val cost_increment : tag:int -> arg:int -> int

(** Per-thread executed-basic-block counters. *)
module Counter : sig
  type t

  val create : unit -> t

  (** [on_raw c ~tag ~tid ~arg] advances thread [tid]'s counter by
      {!cost_increment}; it does not allocate. *)
  val on_raw : t -> tag:int -> tid:int -> arg:int -> unit

  (** [cost c tid] is the number of basic blocks executed so far by
      [tid] (0 for an unseen thread) — the profiler's [getCost()]. *)
  val cost : t -> Aprof_trace.Event.tid -> int

  (** [total c] is the sum over all threads. *)
  val total : t -> int
end

(** [simulated_time_ns rng ~ns_per_block ~jitter cost] is a simulated
    wall-clock measurement of [cost] basic blocks: multiplicative Gaussian
    noise of relative magnitude [jitter] plus a constant overhead,
    truncated below at 10% of the noiseless value. *)
val simulated_time_ns :
  Aprof_util.Rng.t -> ns_per_block:float -> jitter:float -> int -> float
