(** The slowdown/space measurement harness behind Table 1, Figure 16
    and [aprof overhead].

    Every tool replays the *same* packed trace through its [on_batch]
    ({!Aprof_trace.Trace.replay}).  Time comes from the one sampler,
    {!Aprof_util.Stats.sample}: interleaved rounds of wall-clock
    samples of each tool's create + replay, and slowdown is reported
    per round against two baselines timed in the same rounds:

    - [vs_native]: walking every event's packed fields with an empty
      handler — our equivalent of native execution (the program "runs"
      when its trace is enumerated; tools add analysis work on top);
    - [vs_nulgrind]: against the null tool, the paper's shared
      instrumentation baseline — its own measured row, so nulgrind
      reads exactly 1.0x.

    Space overhead is (program footprint + tool footprint) / program
    footprint, with the program footprint given by the simulated memory
    high-water mark — the analogue of comparing a tool's resident size
    against the native process. *)

type measurement = {
  tool : string;
  time_s : float;  (** median wall seconds per replay (create included) *)
  slowdown_native : float array;
      (** per round: this tool's seconds over the native walk's *)
  slowdown_nulgrind : float array;  (** per round: over nulgrind's *)
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

(** [measure ~now ~rounds ~program_words trace] samples the native
    walk and a fresh instance of each tool in {!tools} over [trace] for
    [rounds] rounds by the clock [now] ({!Aprof_util.Stats.sample}),
    one row per tool in that order. *)
val measure :
  now:(unit -> float) ->
  rounds:int ->
  program_words:int ->
  Aprof_trace.Trace.t ->
  measurement list

(** [geometric_rows per_benchmark] aggregates measurements of the same
    tool across benchmarks by geometric mean (Table 1's aggregation):
    rows are (tool, slowdown_native, slowdown_nulgrind, space_overhead),
    where each slowdown is the median and quartiles over rounds of that
    round's geometric mean.  Every measurement must have the same
    number of rounds. *)
val geometric_rows :
  measurement list list ->
  (string * Aprof_util.Stats.summary * Aprof_util.Stats.summary * float) list

(** One [aprof overhead] line: time and the median slowdowns. *)
val pp_measurement : Format.formatter -> measurement -> unit
