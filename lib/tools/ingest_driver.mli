(** Incremental merge driver: the live-ingest sibling of
    {!Replay_driver}.

    One driver serves one connection.  Feed it decoded batches
    ({!on_batch}) as {!Aprof_trace.Trace_net} produces them; at each
    end-of-trace marker call {!trace_end}, which finishes the current
    profiler and hands the completed trace's profile to [on_profile].
    Each trace's profiler is created at its first batch, so between
    traces — and after the last one — the driver holds no profiler
    state.
    {!abort} discards partial state (connection died mid-trace) without
    surfacing anything — the per-file all-or-nothing contract of the
    replay driver, transplanted to connections.

    Folding only completed traces is what makes live aggregation exact:
    the accumulated result equals an offline merge of the same traces.

    Like the rest of [lib/tools], this module is sans-IO: it never
    touches a socket or a clock. *)

type profiler = Replay_driver.profiler

type t

(** [create ~on_profile ()] builds a driver.  [on_profile] receives each
    completed trace's finished profile and its event count, synchronously
    from inside {!trace_end}.
    @param profiler which profiler backs each trace (default [`Drms]). *)
val create :
  ?profiler:profiler ->
  on_profile:(profile:Aprof_core.Profile.t -> events:int -> unit) ->
  unit ->
  t

(** [on_batch t b] feeds one decoded batch to the current trace's
    profiler.  After {!note_drop}, unmatched returns are compacted out
    in place (mutating [b]), exactly as salvage replay filters files. *)
val on_batch : t -> Aprof_trace.Event.Batch.t -> unit

(** [note_drop t] records that salvage dropped a chunk of the current
    trace, arming the orphaned-return filter until the trace ends. *)
val note_drop : t -> unit

(** [trace_end t] finishes the current profiler (an empty trace's
    profile comes from a fresh one), reports through [on_profile], and
    resets for the next trace. *)
val trace_end : t -> unit

(** [abort t] discards the current trace's partial state. *)
val abort : t -> unit

(** Events fed to the current (partial) trace so far. *)
val events : t -> int

(** Whether the orphaned-return filter is armed for the current trace. *)
val salvaging : t -> bool
