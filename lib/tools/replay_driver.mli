(** Trace-file replay, factored out of the [aprof replay] command so the
    failure-isolation and salvage behavior is testable as a library.

    The driver replays one or more recorded trace files (binary or text,
    auto-detected) through a profiler — and optionally through every
    standard analysis tool — and returns everything as data: profiles
    merged over the files that decoded, per-file drop reports from
    salvage mode, buffered tool summaries, and per-file errors.  It
    never writes to any channel, so a caller can order and route the
    output after the fact — in particular, nothing of a file that failed
    mid-replay is ever surfaced as if it were complete.

    Failure isolation: a {!Aprof_trace.Trace_stream.Decode_error}, a
    [Sys_error], or an [Invalid_argument] from a profiler or tool
    refusing the event stream (a return with no matching call) while
    replaying one file discards that file's partial state and is
    recorded in its {!file_report}; every other file still replays.
    [keep_going] additionally salvages damaged binary files
    chunk-by-chunk ({!Aprof_trace.Trace_codec.read}), recording what was
    dropped instead of failing the file. *)

(** One tool's buffered result on one file. *)
type tool_run = {
  tool_name : string;
  summary : string;  (** the summary line(s), unprinted *)
  tool_events : int;
  tool_seconds : float;
}

(** What happened to one input file.  [error = Some _] means the file
    contributed nothing to the merged profile (and ran no tools);
    [drops] are the regions salvage skipped, in file order — a file can
    have drops and still no error, which is a successful salvage. *)
type file_report = {
  path : string;
  format : string;
      (** what the file carries: ["text"], ["binary-vN"] (the trace
          format version), or ["unknown"] when the header is unreadable *)
  events : int;
  seconds : float;
  drops : Aprof_trace.Trace_codec.drop list;
  error : string option;
  tool_runs : tool_run list;
}

type t = {
  files : file_report list;  (** in input order *)
  profile : Aprof_core.Profile.t;  (** merged over the files that decoded *)
  names : (int, string) Hashtbl.t;
  events : int;  (** total events profiled *)
  seconds : float;
  failed : bool;  (** some file has [error = Some _] *)
}

(** [replay ~now paths] replays every file in [paths] through
    [profiler] (default {!Aprof_adapters.Drms}; any of
    {!Harness.profilers}) and, with [with_tools], through every tool of
    {!Harness.tools}.

    [jobs] (default 1) bounds parallelism: several files replay
    concurrently (one profiler instance per file, profiles merged), and
    a single binary file with a chunk index splits into [jobs] shards,
    one task each ({!Tool.replay_parallel}), as the profiler's
    {!Tool.sharding} allows — every registry profiler
    shards by thread.  The pool behind both runs at most
    {!Aprof_util.Par.available_parallelism} domains, so [jobs] beyond
    the core count changes the shard count but never oversubscribes
    the host.  The tools take the same path per file: helgrind, whose
    sharding is [Global], replays the chunks in order.
    [keep_going] (default false) switches damaged binary files to chunk
    salvage instead of failing them, with the {!orphan_filter} armed by
    the first drop; salvage is a sequential read path, so it also
    disables the sharded replay.
    [now] supplies wall-clock timestamps (e.g. [Unix.gettimeofday]) —
    a parameter because this library does not link unix.
    @raise Invalid_argument when [jobs < 1]. *)
val replay :
  ?jobs:int ->
  ?profiler:(module Tool.Profiler) ->
  ?with_tools:bool ->
  ?keep_going:bool ->
  now:(unit -> float) ->
  string list ->
  t

(** {1 Orphaned-return filter}

    Shared by salvage replay and salvage ingest ({!Ingest_driver}).  A
    dropped chunk can swallow the [Call]s whose activations a later
    chunk closes, and the orphaned [Return]s would abort the profiler.
    The filter tracks per-thread call depth from the first event it
    sees; once {!arm}ed (a drop was reported) it compacts unmatched
    returns out of each batch in place.  Unarmed, batches pass through
    unchanged, so an unmatched return in an undamaged stream still
    fails the profiler. *)

type orphan_filter

val orphan_filter : unit -> orphan_filter

(** [arm f] records that the stream reported a drop. *)
val arm : orphan_filter -> unit

(** Whether [f] has been armed. *)
val armed : orphan_filter -> bool

(** [filter_orphans f b] tracks call depth over [b] and, once armed,
    removes its unmatched returns (mutating [b]). *)
val filter_orphans : orphan_filter -> Aprof_trace.Event.Batch.t -> unit
