(** The interpreter: executes a multi-threaded DSL program and emits the
    totally ordered instrumentation trace.

    This is the repository's stand-in for Valgrind's dynamic binary
    instrumentation: the profilers and tools of the paper consume the
    event stream this module produces.  A run is a pure function of the
    program, the scheduler policy and the seed. *)

type config = {
  scheduler : Scheduler.policy;
  seed : int;
  devices : (string * Device.t) list;
      (** named devices available to [sys_open] *)
  max_events : int;  (** abort runaway programs (default 50M) *)
  reuse_freed_memory : bool;
      (** when true the allocator recycles freed blocks (first fit),
          exercising the profilers' address-recycling path; default
          false gives a pure bump allocator with fresh addresses *)
}

val default_config : config

type result = {
  trace : Aprof_trace.Trace.t;
  routines : Aprof_trace.Routine_table.t;
  threads_spawned : int;
  memory_high_water : int;  (** peak allocated simulated cells *)
  events_emitted : int;
      (** total events the run produced — also meaningful for streaming
          runs, whose [trace] field stays empty *)
}

(** Raised on deadlock, unbalanced call/return, unknown device, negative
    allocation, join on an unknown thread, or event-budget exhaustion. *)
exception Run_error of string

(** [run config threads] executes the initial [threads] (thread ids 0, 1,
    ... in list order) to completion and returns the recorded trace:
    {!run_batched} with each emission batch appended to a packed
    {!Aprof_trace.Trace.t}, so no [Event.t] is built here either.
    @raise Run_error as described above. *)
val run : config -> unit Program.t list -> result

(** [run_batched config threads ~tool] is the streaming run, the one
    online-profiling mode: [tool] receives the run's routine intern
    table {e before} the first event and returns the batch callback, so
    an analysis (a profiler, a trace encoder) observes the workload
    while it executes and can resolve routine ids to names as they are
    interned — the interpreter interns a routine's name before emitting
    its [Call] event.  The interpreter packs events straight into a
    recycled {!Aprof_trace.Event.Batch.t} — no [Event.t] is ever
    constructed — and hands it to the callback when full, plus once
    more (partially filled) at the end of the run.  The callback must
    not retain the batch: it is cleared and reused after each call.  No
    trace is materialized: the result's [trace] stays empty. *)
val run_batched :
  config ->
  unit Program.t list ->
  tool:(Aprof_trace.Routine_table.t -> Aprof_trace.Event.Batch.t -> unit) ->
  result
