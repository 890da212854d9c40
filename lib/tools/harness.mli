(** The slowdown/space measurement harness behind Table 1 and Figure 16.

    Every tool replays the *same* packed trace through its [on_batch]
    ({!Aprof_trace.Trace.replay}); time is CPU seconds over enough
    repetitions to dominate timer noise, and slowdown is reported
    against two baselines:

    - [vs_native]: walking every event's packed fields with an empty
      handler — our equivalent of native execution (the program "runs"
      when its trace is enumerated; tools add analysis work on top);
    - [vs_nulgrind]: against the null tool, the paper's shared
      instrumentation baseline.

    Space overhead is (program footprint + tool footprint) / program
    footprint, with the program footprint given by the simulated memory
    high-water mark — the analogue of comparing a tool's resident size
    against the native process. *)

type measurement = {
  tool : string;
  time_s : float;  (** mean CPU seconds per replay *)
  slowdown_native : float;
  slowdown_nulgrind : float;
  space_words : int;
  space_overhead : float;
  summary : string;
}

(** The tool registry: the Table 1 tool set, in column order —
    nulgrind, memcheck, callgrind, helgrind, aprof, aprof-drms.  Every
    tool consumer takes its tools from here: [aprof tools], [overhead]
    and [replay --tools], {!measure}, the bench drivers.  Each tool's
    {!Tool.sharding} says how replay may split it: nulgrind by chunk,
    helgrind not at all ([Global]), the rest by thread. *)
val tools : (module Tool.S) list

(** The profiler registry behind [--profiler], in its documented order:
    [drms] (the default), [rms] and [naive], mapped to
    {!Aprof_adapters.Drms}, {!Aprof_adapters.Rms} and
    {!Aprof_adapters.Naive}. *)
val profilers : (string * (module Tool.Profiler)) list

(** [measure ~trace ~program_words tools] replays [trace] through a
    fresh instance of each tool.
    @param min_time keep repeating until this much CPU time was sampled
    per tool (default 0.05 s). *)
val measure :
  ?min_time:float ->
  trace:Aprof_trace.Trace.t ->
  program_words:int ->
  (module Tool.S) list ->
  measurement list

(** [geometric_rows per_benchmark] aggregates measurements of the same
    tool across benchmarks by geometric mean (Table 1's aggregation):
    rows are (tool, slowdown_native, slowdown_nulgrind, space_overhead). *)
val geometric_rows :
  measurement list list -> (string * float * float * float) list

val pp_measurement : Format.formatter -> measurement -> unit
