(** The read/write timestamping algorithm (Figures 8 and 9 of the paper).

    Computes, for every routine activation of every thread, the dynamic
    read memory size (drms) — the number of first-reads and induced
    first-reads performed by the activation or its descendants — together
    with the classic read memory size (rms) and the executed-basic-block
    cost, producing performance points in a {!Profile.t}.

    Data structures mirror the paper: a global counter of thread switches
    and routine activations, a global shadow memory [wts] holding the
    timestamp of the latest write to each location by any thread (or the
    kernel), and per-thread shadow memories [ts_t] plus shadow run-time
    stacks whose entries carry partial drms values satisfying Invariant 2
    (the drms of the i-th pending activation is the suffix sum of partial
    values from i to the top).

    All events run in O(1) except reads resolving an ancestor first
    access, which binary-search the shadow stack in O(log depth).

    Induced first-reads are attributed to a source — another thread or the
    kernel — via a parallel shadow holding the kind of the latest writer;
    the attribution feeds the thread-input / external-input metrics.

    The global counter is renumbered in place when it reaches
    [overflow_limit], preserving the relative order of all live
    timestamps (the paper's counter-overflow mitigation); a tiny limit
    exercises that path deterministically in tests. *)

type t

(** Which dynamic input sources the profiler recognizes.  [`Both] is the
    full drms; the restricted modes reproduce Figure 6b (external input
    only) and allow ablations.  With [`None] the drms degenerates to the
    rms. *)
type induction_mode = [ `Both | `External_only | `Thread_only | `None ]

(** [create ()] is a fresh profiler.
    @param overflow_limit renumber timestamps when the global counter
    reaches this value (default [max_int - 1]).
    @param mode which induced first-reads count toward the drms
    (default [`Both]).
    @param track_contexts also collect a calling-context-sensitive
    profile (default false): activations are additionally recorded by
    their {!Cct} node, separating a routine's behaviour by call path.
    @param ancestor_search how line 7 of Figure 8 locates the deepest
    ancestor that had counted a location: [`Binary] (default, the
    paper's O(log depth) bound) or [`Linear] (the naive walk) — results
    are identical; only the ablation benchmark cares. *)
val create :
  ?overflow_limit:int ->
  ?mode:induction_mode ->
  ?track_contexts:bool ->
  ?ancestor_search:[ `Binary | `Linear ] ->
  unit ->
  t

(** [reset t] returns [t] to the state {!create} gave it — same
    options, no owner, counter at zero, an empty fresh profile — but
    keeps its storage: every shadow is zero-filled rather than dropped,
    and each thread state, with its shadow and frame stack, is kept for
    the next fed thread to reuse.  Feeding a reset profiler gives
    exactly what a fresh one gives; the profile {!finish} returned
    before is no longer touched.  Costs O({!space_words}). *)
val reset : t -> unit

(** [set_owner t owns] puts [t] in shard mode for parallel replay:
    [owns tid] says whether this instance owns thread [tid].  The
    instance must then be fed the shard-filtered substream — every event
    of its owned threads plus every event whose tag is in
    {!shard_broadcast}, in trace order.  Foreign events are replayed for
    their global effects only: calls and thread switches tick the
    counter, writes stamp the write-timestamp shadow, kernel fills and
    frees run in full.  Every counter tick is broadcast, so the sharded
    clock stamps each owned access in the same relative order as the
    sequential clock, and the resulting profile is exactly the
    sequential profile restricted to the owned threads; disjoint shards
    then combine with {!merge_into} (see DESIGN.md 4c).
    @raise Invalid_argument if [t] has already been fed events. *)
val set_owner : t -> (int -> bool) -> unit

(** The {!Aprof_trace.Event.Batch} tag mask a sharded instance must
    observe regardless of owner: [Call], [Write], [Kernel_to_user],
    [Free] and [Switch_thread] — the counter-ticking and
    write-shadow-mutating events. *)
val shard_broadcast : int

(** [on_batch t b] processes every packed event of [b] in order — the
    profiler's one event entry point.  It dispatches on the raw int
    fields, so no [Event.t] is ever constructed. *)
val on_batch : t -> Aprof_trace.Event.Batch.t -> unit

(** [finish t] collects every still-pending activation (as a profiler
    does at program exit) and returns the accumulated profile.  The
    profiler must not be fed further events afterwards. *)
val finish : t -> Profile.t

(** [profile t] is the profile accumulated so far (completed activations
    only), without collecting pending ones. *)
val profile : t -> Profile.t

(** [merge_into ~into src] finishes both profilers and merges [src]'s
    profile into [into]'s ({!Profile.merge_into}).  Sound when the two
    instances saw disjoint sets of activations: profiles of separate
    traces, or shards of one trace under the {!set_owner} contract
    (owned threads disjoint, broadcast events replayed by both) —
    profile cells are keyed by (thread, routine), so disjoint owners
    touch disjoint cells and the merge is exact. *)
val merge_into : into:t -> t -> unit

(** [renumber_count t] is the number of timestamp renumberings performed
    (for tests and the overhead report). *)
val renumber_count : t -> int

(** [space_words t] estimates the words held by shadow memories and
    shadow stacks, for the Table 1 space comparison — including the
    thread states {!reset} keeps for reuse. *)
val space_words : t -> int

(** [current_drms t ~tid] is the drms of every pending activation of
    [tid], bottom of the stack first, computed from the partial values
    via Invariant 2.  Exposed for the invariant tests. *)
val current_drms : t -> tid:int -> int list

(** [context_results t] — with [~track_contexts:true], the context tree
    and a profile whose [routine] field holds {!Cct} node ids; [None]
    otherwise. *)
val context_results : t -> (Cct.t * Profile.t) option
