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

(** [on_batch t b] processes every packed event of [b] in order — the
    profiler's one event entry point; no variant is constructed. *)
val on_batch : t -> Aprof_trace.Event.Batch.t -> unit

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
