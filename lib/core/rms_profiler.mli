(** The baseline input-sensitive profiler of Coppa et al., PLDI 2012 —
    the paper's [aprof] comparator.

    Computes the plain read memory size (rms, Definition 1) with the
    latest-access algorithm: per-thread shadow memories and shadow stacks,
    but *no* global write-timestamp shadow, hence no induced first-reads.
    Kept separate from {!Drms_profiler} so the Table 1 comparison measures
    the true marginal cost of recognizing induced first-reads (the paper
    reports ~29% run-time overhead and the extra global shadow memory). *)

type t

val create : unit -> t
val on_event : t -> Aprof_trace.Event.t -> unit

(** [on_raw t ~tag ~tid ~arg ~len] is {!on_event} on the packed fields
    of {!Aprof_trace.Event.Batch}; no variant is constructed. *)
val on_raw : t -> tag:int -> tid:int -> arg:int -> len:int -> unit

(** [on_batch t b] feeds every packed event of [b] through {!on_raw}. *)
val on_batch : t -> Aprof_trace.Event.Batch.t -> unit

val run : t -> Aprof_trace.Trace.t -> unit

(** [run_stream t s] feeds the events of [s] incrementally; the stream
    is consumed (the whole trace is never materialized). *)
val run_stream : t -> Aprof_trace.Trace_stream.t -> unit

(** [run_batches t src] drains a batch source through {!on_batch}. *)
val run_batches : t -> Aprof_trace.Trace_stream.batch_source -> unit

(** [finish t] collects pending activations and returns the profile.  In
    the resulting profile drms fields are copies of the rms values (this
    profiler cannot see dynamic input). *)
val finish : t -> Profile.t

val profile : t -> Profile.t

(** [merge_into ~into src] finishes both profilers (collecting pending
    activations) and merges [src]'s profile into [into]'s, so partial
    replays — trace shards partitioned by thread, or separate runs —
    compose into one profile.  Afterwards {!finish}[ into] returns the
    combined profile; neither profiler accepts further events. *)
val merge_into : into:t -> t -> unit

(** [reset t] returns [t] to the state {!create} gave it, keeping its
    zero-filled shadows and thread states for reuse, as
    {!Drms_profiler.reset} does. *)
val reset : t -> unit

(** [space_words t] for the Table 1 space comparison, including the
    thread states {!reset} keeps for reuse. *)
val space_words : t -> int
