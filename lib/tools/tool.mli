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
      event count).  [jobs] instances take chunks from one shared
      counter.
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

(** {1 Chunked trace sources}

    The parallel engine plans shards in chunks, the unit of recorded
    I/O and of the ATRI shard index. *)
module Shards : sig
  (** An indexed binary trace: its path and its index entries (event
      count, tag mask, thread set — enough to plan a shard). *)
  type t = { path : string; chunks : Aprof_trace.Trace_codec.shard array }

  (** [of_file path] reads [path]'s ATRI footer.  [None] for text or
      index-less traces — callers fall back to sequential replay.
      @raise Aprof_trace.Trace_stream.Decode_error on a corrupt index. *)
  val of_file : string -> t option
end

(** [replay_parallel ~pool ~jobs ~shards (module M)] replays the trace
    behind [shards] through up to [jobs] instances of [M], one
    {!Aprof_util.Par.run} task each on [pool], each task reading its
    chunks through its own {!Aprof_trace.Trace_codec.chunk_session}: a
    [By_thread] shard replays the chunks holding its threads or a
    broadcast tag, in file order, through one instance, and delivers
    each decoded batch compacted to its owned and broadcast events
    (an emptied batch is not delivered); [By_chunk] tasks take chunks
    from one shared counter.  A [By_thread] shard holds every record
    of its chunks to the index entry it chose the chunk by, and raises
    {!Aprof_trace.Trace_stream.Decode_error}, naming the chunk's
    offset, on a tag outside the entry's [tag_mask] or a thread outside
    its [tids].  Partial states merge into the first; partial name
    tables union.  A [Global] tool, [jobs = 1] and an empty chunk list
    are one task that drains every chunk in file
    order through one instance, with no filter and no reordering — the
    [-j N ≡ -j 1] differential suite relies on it.  Returns [(state,
    events, names)] where [events] counts each trace event exactly once
    — broadcast copies replayed for their side effects are not counted
    — so the total is independent of [jobs].  A shard that raises does
    not stop the others: every task finishes, then the lowest-indexed
    shard's exception is re-raised. *)
val replay_parallel :
  pool:Aprof_util.Par.t ->
  jobs:int ->
  shards:Shards.t ->
  (module S with type state = 'a) ->
  'a * int * (int, string) Hashtbl.t
