(** Reference implementation of the drms by the naive approach of
    Figure 7: every pending routine activation of every thread carries an
    explicit set [L_{r,t}] of accessed memory locations; writes by other
    threads (and kernel writes) remove locations from the sets of every
    other thread, and a read counts toward the drms of each pending
    activation whose set misses the location.

    Time and space are deliberately terrible — O(stack depth) per access
    and one set per pending activation — exactly as the paper describes.
    Its purpose is to serve as the differential-testing oracle for
    {!Drms_profiler}: on any well-formed trace both must produce identical
    profiles. *)

type t

val create : unit -> t

(** [on_batch t b] processes every event of [b] in order.  Behind it the
    oracle unpacks each event and runs its per-event core. *)
val on_batch : t -> Aprof_trace.Event.Batch.t -> unit

(** [finish t] collects pending activations and returns the profile.
    Per-activation rms/drms/cost and per-routine first-read operation
    counts follow the same conventions as {!Drms_profiler}. *)
val finish : t -> Profile.t

val profile : t -> Profile.t

(** [merge_into ~into src] finishes both profilers and merges [src]'s
    profile into [into]'s; the same per-trace soundness caveat as
    {!Drms_profiler.merge_into} applies. *)
val merge_into : into:t -> t -> unit

(** [reset t] returns [t] to the state {!create} gave it: every table
    is dropped and an empty fresh profile started.  The profile {!finish}
    returned before belongs to its receiver and is no longer touched. *)
val reset : t -> unit

(** [current_drms t ~tid] mirrors {!Drms_profiler.current_drms}: the drms
    of each pending activation of [tid], bottom first. *)
val current_drms : t -> tid:int -> int list
