(** The common face of every trace-analysis tool, mirroring how the
    Valgrind tools of Table 1 register once with one instrumentation
    substrate: each tool is one module of signature {!S}, consuming the
    same event stream and exposing its memory footprint for the
    space-overhead comparison.  {!Harness.tools} lists them in Table 1
    order, and every consumer — [aprof tools]/[overhead], sequential and
    sharded replay, the bench drivers — takes its tools from that list.

    A tool has one event entry point, [on_batch], over packed
    {!Aprof_trace.Event.Batch.t}s: the tools dispatch on the raw int
    fields and never construct an [Event.t].  Every producer feeds it —
    a live VM run ({!Aprof_vm.Interp.run_batched}), an in-memory trace
    ({!Aprof_trace.Trace.replay}), a decoded file or socket. *)

(** How the parallel engine ({!replay_parallel}) may split one trace's
    replay over several instances of a tool:

    - [By_chunk]: any instance may replay any chunk of the trace, in any
      order — only valid for order-independent analyses (nulgrind's
      event count).
    - [By_thread]: threads are partitioned over the instances; each
      instance replays its own threads' events, in trace order, plus
      every event whose tag is in [broadcast] — the events carrying
      cross-thread effects (e.g. [Free] for the rms profiler, the
      counter-ticking and write-stamping tags for the drms profiler).
      [set_owner] tells an instance which threads it owns before replay
      begins; tools whose handlers never need to distinguish foreign
      events (they are either harmless or intended globally) implement
      it as a no-op.
    - [Global]: the analysis needs the whole interleaving (helgrind's
      lockset and epoch inference); the engine replays the trace in
      order through one instance and never merges.

    [merge] must be associative, with a fresh [create ()] as identity,
    over states produced from such complementary part-streams. *)
type 'state sharding =
  | By_chunk of { merge : into:'state -> 'state -> unit }
  | By_thread of {
      broadcast : int;  (** tag mask of events every instance must see *)
      set_owner : 'state -> (int -> bool) -> unit;
      merge : into:'state -> 'state -> unit;
    }
  | Global

(** A tool: fresh state per run, fed through [on_batch]. *)
module type S = sig
  type state

  val name : string
  val create : unit -> state

  (** [on_batch st b] must neither retain nor modify [b]: the producer
      owns and may recycle it. *)
  val on_batch : state -> Aprof_trace.Event.Batch.t -> unit

  (** Current footprint of the tool's own data structures, in words. *)
  val space_words : state -> int

  (** One-paragraph human-readable result. *)
  val summary : state -> string

  val sharding : state sharding
end

(** An input-sensitive profiler: a tool whose result is a profile.
    Replay ({!Replay_driver}) and the daemon ({!Ingest_driver}) run any
    of {!Harness.profilers}. *)
module type Profiler = sig
  include S

  (** [finish st] collects every still-pending activation and returns
      the profile; [st] takes no further events until {!reset}. *)
  val finish : state -> Aprof_core.Profile.t

  (** [reset st] returns [st] to its [create] state, keeping whatever
      storage it can reuse; the profile [finish] returned before is no
      longer touched. *)
  val reset : state -> unit
end

(** [shard_keep ~owns ~broadcast] is the per-event filter of a
    [By_thread] shard: keep events of the owned threads plus broadcast
    ones. *)
val shard_keep : owns:(int -> bool) -> broadcast:int -> int -> int -> bool

(** {1 Chunked trace sources}

    The parallel engine schedules work in chunks — the unit of recorded
    I/O (and of the ATRI shard index) for trace files, a fixed event
    count for in-memory traces.  A {!Shards.t} describes the chunks
    (event count, tag mask, thread set — enough to plan a shard) and
    opens independent read sessions over them. *)
module Shards : sig
  type chunk = { events : int; tag_mask : int; tids : int array }

  (** One independent reader over the chunk source.  [read i] returns a
      batch source draining chunk [i] alone; it must be exhausted before
      the next [read] on the same session (sessions recycle one buffer).
      [names] accumulates the routine-name definitions seen by this
      session's reads.  Sessions are single-domain; open one per
      worker. *)
  type session = {
    names : (int, string) Hashtbl.t;
    read : int -> Aprof_trace.Trace_stream.batch_source;
    close : unit -> unit;
  }

  (** [open_session ?keep ()] opens an independent reader.  [keep tag
      tid] is applied inside the decode loop: events failing it are
      parsed but never surface in a batch — the [By_thread] engine
      passes {!shard_keep} here so a shard's foreign, non-broadcast
      events are parse-only rather than filtered after the fact. *)
  type t = {
    chunks : chunk array;
    open_session : ?keep:(int -> int -> bool) -> unit -> session;
  }

  (** [of_file path] describes an indexed binary trace via its ATRI
      footer; sessions seek ({!Aprof_trace.Trace_codec.chunk_session}).
      [None] for text or index-less traces — callers fall back to
      sequential replay. *)
  val of_file : string -> t option

  (** [of_trace trace] slices an in-memory trace into synthetic chunks
      of [chunk_events] events (default 4096) — the test harness's way
      to drive the parallel engine without a file.  Sessions copy the
      raw fields of a chunk's kept events into one recycled batch. *)
  val of_trace : ?chunk_events:int -> Aprof_trace.Trace.t -> t
end

(** [replay_parallel ~pool ~jobs ~shards (module M)] replays the trace
    behind [shards] through up to [jobs] instances of [M], scheduled by
    work stealing at chunk granularity ({!Aprof_util.Par.Ws}): an idle
    worker steals queued chunks ([By_chunk]) or the remainder of
    another shard ([By_thread]) instead of waiting behind a skewed
    thread.  Partial states merge into the first; partial name tables
    union.  A [Global] tool replays every chunk in order through one
    instance.  Returns [(state, events, names)] where [events] counts each
    trace event exactly once — broadcast copies replayed for their side
    effects are not counted — so the total is independent of [jobs].
    With [jobs = 1] (or an empty chunk list) this is exactly a
    sequential drain of the chunks, in file order, through one
    instance: no filtering, no reordering — the [-j N ≡ -j 1] differential suite
    relies on it. *)
val replay_parallel :
  pool:Aprof_util.Par.t ->
  jobs:int ->
  shards:Shards.t ->
  (module S with type state = 'a) ->
  'a * int * (int, string) Hashtbl.t
