(** Incremental merge driver: the live-ingest sibling of
    {!Replay_driver}.

    One driver serves one connection.  Feed it decoded batches
    ({!on_batch}) as {!Aprof_trace.Trace_net} produces them; at each
    end-of-trace marker call {!trace_end}, which finishes the current
    profiler and hands the completed trace's profile to [on_profile].
    Each trace's profiler is taken at its first batch from the
    driver's {!pool} (fresh when the pool has none idle) and given back
    at the trace's end, so between traces — and after the last one —
    the driver holds no profiler state.
    {!abort} discards partial state (connection died mid-trace) without
    surfacing anything — the per-file all-or-nothing contract of the
    replay driver, transplanted to connections.

    Folding only completed traces is what makes live aggregation exact:
    the accumulated result equals an offline merge of the same traces.

    Like the rest of [lib/tools], this module is sans-IO: it never
    touches a socket or a clock. *)

type profiler = Replay_driver.profiler

(** Reset profilers, shared by every driver created with it — a
    daemon's connections — and safe to use from several domains at
    once.  A drms or rms profiler is given back after {!trace_end} has
    reported its profile, or on {!abort}, reset in place
    ({!Aprof_core.Drms_profiler.reset}) and kept for the next trace that
    needs one.  The pool keeps at most 8 idle profilers of each kind,
    and only ones whose shadow memory is at most 2{^18} words
    ({!Aprof_core.Drms_profiler.space_words}); a larger one is released.
    So a pool retains at most 16 × 2{^18} words (32 MiB) of shadow
    memory, and a pooled profiler's reset costs at most 2{^18} words of
    zero-fill.  Naive profilers are never pooled. *)
type pool

(** [pool ()] is an empty pool; it fills as traces end. *)
val pool : unit -> pool

type t

(** [create ~on_profile ()] builds a driver.  [on_profile] receives each
    completed trace's finished profile and its event count, synchronously
    from inside {!trace_end}; the profile stays the receiver's.
    @param profiler which profiler backs each trace (default [`Drms]).
    @param salvage the stream may report drops ({!note_drop}), so track
    call depth for the orphaned-return filter (default [false]: a strict
    stream never drops, and pays nothing for the filter).
    @param pool where profilers come from and go back to. *)
val create :
  ?profiler:profiler ->
  ?salvage:bool ->
  pool:pool ->
  on_profile:(profile:Aprof_core.Profile.t -> events:int -> unit) ->
  unit ->
  t

(** [on_batch t b] feeds one decoded batch to the current trace's
    profiler.  After {!note_drop}, unmatched returns are compacted out
    in place (mutating [b]), exactly as salvage replay filters files. *)
val on_batch : t -> Aprof_trace.Event.Batch.t -> unit

(** [note_drop t] records that salvage dropped a chunk of the current
    trace, arming the orphaned-return filter until the trace ends.
    @raise Invalid_argument unless [t] was created with [~salvage:true]. *)
val note_drop : t -> unit

(** [trace_end t] finishes the current profiler (an empty trace's
    profile comes from a fresh one), reports through [on_profile], and
    resets for the next trace. *)
val trace_end : t -> unit

(** [abort t] discards the current trace's partial state, giving its
    profiler back to the pool. *)
val abort : t -> unit

(** Events fed to the current (partial) trace so far. *)
val events : t -> int

(** Whether the orphaned-return filter is armed for the current trace. *)
val salvaging : t -> bool
