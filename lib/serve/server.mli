(** The aprof ingest daemon: always-on concurrent ATRC aggregation.

    {!start} opens Unix-domain and/or TCP listeners and accepts any
    number of concurrent connections.  A connection whose first four
    bytes are ["ATRC"] is an ingest stream: the wire format is exactly
    the trace file format (several traces may follow back-to-back), a
    per-connection reader thread queues the slices it reads, and a pool
    of ingest workers (domains on OCaml 5) decodes and profiles them,
    folding each completed trace's profile into one locked accumulator
    ({!Shard_acc}).  Any other first bytes start a one-line text control
    exchange: [PING], [STATS], [SNAPSHOT], [STOP].

    One lock guards every shared field of the daemon but the stop and
    snapshot requests: each connection's queued slices, queued-byte
    count, end-of-stream flag, run state, counters and descriptor state.  Reads, decodes and folds run outside
    it.  A worker claims a connection, decodes one queued slice, and
    puts the connection at the back of the run queue if more is queued,
    so a connection that keeps streaming cannot hold a worker while
    others wait.  A connection's reader and its decoding side each hold
    its descriptor, and the last to let go closes it; after {!stop} no
    connection holds a descriptor, a decoder or a profiler.

    Guarantees:

    - {b Bounded memory}: a live connection holds its queued slices
      (at most [inbox_bytes] of queued payload once non-empty — an
      empty queue takes one slice of any size; when a worker falls
      behind, the reader stops reading and the socket/peer absorb the
      pressure) and the one slice its reader is filling, plus the
      slices of one unfinished item (a frame header and at most 64 MiB
      of payload, the decoder's frame bound — 64 KiB more for a footer
      — in at most two slices more than those bytes fill),
      plus one profiler while a trace is open.  Everything else a
      decode needs — the recycled batch, the chunk cursors, salvage's
      stage, the area a straddling item is assembled in — belongs to
      the worker that runs it, one set per worker however many
      connections there are.  Slices and profilers come from two
      daemon-wide pools that fill only as connections give back what
      they used (nothing is allocated ahead at {!start}) and retain at
      most 4 MiB of idle slices and 8 idle profilers of the daemon's one
      kind, each with at most 2{^18} words of shadow memory (a larger
      one is released, not pooled) — at most 8 × 2{^18} words (16 MiB)
      of idle shadow memory.  A finished connection keeps only the
      counters that {!stats} and {!clients} report: its decoder and
      driver are dropped and its slices and profiler go back to the
      pools, so it costs fewer than {!finished_conn_words} live heap
      words for the daemon's lifetime.
    - {b Exact aggregation}: profiles are folded only at trace
      boundaries, and a fold and a snapshot each hold the
      accumulator's one lock, so any snapshot equals the offline
      [aprof merge] of the traces completed so far.
    - {b Corruption isolation}: a malformed stream poisons only its own
      connection; its partial trace is aborted, never folded.  A
      routine name that is not {!Aprof_util.Line_record.writable} (it
      holds a CR or LF) is malformed too, since it would forge records
      in a snapshot.  A peer that sees its connection end can already
      read the connection's error in {!clients}.  With [salvage] damaged
      chunks are dropped per the salvage trichotomy and the stream
      continues; damage no chunk boundary bounds drops the rest of the
      connection as one region. *)

module Profile = Aprof_core.Profile

type config = {
  unix_path : string option;  (** Unix-domain listener path *)
  tcp : (string * int) option;  (** TCP listener (host, port; 0 = any) *)
  profiler : (module Aprof_tools.Tool.Profiler);
      (** run over each trace; one of {!Aprof_tools.Harness.profilers} *)
  jobs : int;  (** ingest workers (domains on OCaml 5) *)
  snapshot_every : float;  (** seconds; 0 = snapshot only on request *)
  snapshot_profile : string option;  (** profile CSV written per snapshot *)
  fleet_csv : string option;  (** fleet CSV written per snapshot *)
  inbox_bytes : int;  (** per-connection queued-byte bound *)
  read_bytes : int;  (** read slice size, at least 4 *)
  idle_timeout : float;  (** kill a silent connection after this; 0 = off *)
  salvage : bool;  (** drop damaged chunks instead of failing the conn *)
  log : string -> unit;
}

val default_config : config

type t

type stats = {
  s_live : int;  (** ingest connections currently open *)
  s_conns : int;  (** ingest connections ever accepted *)
  s_traces : int;  (** completed traces folded *)
  s_events : int;  (** events of completed traces *)
  s_drops : int;  (** regions salvage dropped *)
  s_folds : int;  (** accumulator folds *)
}

(** [start cfg] opens the listeners and spawns the accept threads,
    worker pool and snapshot thread.  Raises [Invalid_argument] when no
    listener is configured or a size or count is out of range, and
    [Unix.Unix_error] when binding fails. *)
val start : config -> t

(** The listener addresses, e.g. ["unix:/tmp/aprof.sock"],
    ["tcp:127.0.0.1:4025"] — with the actual port when 0 was asked. *)
val addresses : t -> string list

(** Ask the server to shut down (non-blocking; {!wait} does the work).
    It only sets a flag, taking no lock, so a signal handler may call it
    whichever thread it interrupts; a thread blocked in {!wait} sees it
    within the snapshot thread's 50 ms tick. *)
val request_stop : t -> unit

(** [wait t] blocks until a stop is requested, then runs the shutdown
    sequence: close listeners, shut down peers that have not routed yet
    or are on a control line, drain live connections (bounded wait,
    then forced), stop workers, join every thread, write a final
    snapshot, unlink the Unix socket.  Returns when the server is fully
    stopped; concurrent callers return together.

    Stop bound: no peer can hold the sequence.  A peer that sent
    nothing, or only part of a control line, is shut down at once;
    ingest streams get 10 s to finish and are then forced closed, with
    5 s more to settle.  So [wait] returns within 15 s of the request
    plus the time to join the workers (each finishes the item it is
    decoding) and to write the final snapshot. *)
val wait : t -> unit

(** {!request_stop} + {!wait}; the stop starts at once. *)
val stop : t -> unit

(** Ask the snapshot thread to write the configured artifacts within
    its 50 ms tick.  Like {!request_stop}, it only sets a flag, so a
    signal handler may call it. *)
val request_snapshot : t -> unit

(** Write the configured snapshot artifacts now (atomically, via
    tmp+rename); [Error] when neither output path is configured. *)
val write_snapshot : t -> (unit, string) result

(** A consistent in-memory snapshot: the merged profile and routine
    names (trace-atomic — see {!Shard_acc}). *)
val snapshot : t -> Profile.t * (int, string) Hashtbl.t

val stats : t -> stats

(** The stated bound on what a finished connection keeps: its counters,
    peer name and bookkeeping come to well under 1,024 words (8 KiB),
    against the hundreds of thousands a decoder and profiler take.  The
    test suite pushes 64 sequential streams and checks the live heap
    grows by less than this per stream. *)
val finished_conn_words : int

(** Per-connection fleet rows (live connections report their window so
    far). *)
val clients : t -> Fleet.client list
