module Trace = Aprof_trace.Trace
module Batch = Aprof_trace.Event.Batch
module Stats = Aprof_util.Stats

type measurement = {
  tool : string;
  time_s : float;
  slowdown_native : float array;
  slowdown_nulgrind : float array;
  space_words : int;
  space_overhead : float;
  summary : string;
}

let tools : (module Tool.S) list =
  [
    (module Nulgrind);
    (module Memcheck_lite);
    (module Callgrind_lite);
    (module Helgrind_lite);
    (module Aprof_adapters.Rms);
    (module Aprof_adapters.Drms);
  ]

let profilers : (string * (module Tool.Profiler)) list =
  [
    ("drms", (module Aprof_adapters.Drms));
    ("rms", (module Aprof_adapters.Rms));
    ("naive", (module Aprof_adapters.Naive));
  ]

(* A handler-free replay standing in for native execution: forces the
   walk over every event's packed fields without analysis work.  The
   accumulator escapes through [Sys.opaque_identity] so the loop cannot
   be optimized away. *)
let native_replay trace =
  let acc = ref 0 in
  Trace.replay trace (fun b ->
      let tids = Batch.tids b in
      for i = 0 to Batch.length b - 1 do
        acc := !acc + Array.unsafe_get tids i
      done);
  ignore (Sys.opaque_identity !acc)

(* [native] enumerates the trace with an empty handler (our stand-in
   for uninstrumented execution); each registry tool replays the same
   trace, and nulgrind's own row is the instrumentation baseline.  One
   sampler run times the native walk and every tool's create + replay
   in interleaved rounds, so each slowdown is a per-round ratio. *)
let measure ~now ~rounds ~program_words trace =
  (* A fresh instance of [M], fed the whole trace. *)
  let replay (type a) (module M : Tool.S with type state = a) =
    let st = M.create () in
    Trace.replay trace (M.on_batch st);
    st
  in
  let cell f time = time f in
  let samples =
    Stats.sample ~now ~rounds
      (cell (fun () -> native_replay trace)
      :: List.map
           (fun (module M : Tool.S) ->
             cell (fun () -> ignore (replay (module M))))
           tools)
  in
  let native = List.hd samples and seconds = List.tl samples in
  (* [tools] starts with nulgrind. *)
  let nulgrind = List.hd seconds in
  let program_words = max program_words 1 in
  List.map2
    (fun (module M : Tool.S) seconds ->
      (* One more, untimed instance for space and summary. *)
      let st = replay (module M) in
      let space_words = M.space_words st in
      {
        tool = M.name;
        time_s = (Stats.summary seconds).Stats.median;
        slowdown_native = Array.map2 ( /. ) seconds native;
        slowdown_nulgrind = Array.map2 ( /. ) seconds nulgrind;
        space_words;
        space_overhead =
          float_of_int (program_words + space_words)
          /. float_of_int program_words;
        summary = M.summary st;
      })
    tools seconds

(* Per round, the geometric mean over benchmarks of that round's
   ratios; a benchmark's rounds are exchangeable, so pairing them by
   index is as good as any pairing. *)
let geometric_rows per_benchmark =
  match per_benchmark with
  | [] -> []
  | first :: _ ->
    List.map
      (fun (m0 : measurement) ->
        let same =
          List.filter_map
            (fun ms ->
              List.find_opt (fun (m : measurement) -> m.tool = m0.tool) ms)
            per_benchmark
        in
        let geo f = Stats.geometric_mean (List.map f same) in
        let per_round f =
          Stats.summary
            (Array.init (Array.length (f m0)) (fun k ->
                 geo (fun m -> (f m).(k))))
        in
        ( m0.tool,
          per_round (fun m -> m.slowdown_native),
          per_round (fun m -> m.slowdown_nulgrind),
          geo (fun m -> m.space_overhead) ))
      first

let pp_measurement ppf m =
  let median xs = (Stats.summary xs).Stats.median in
  Format.fprintf ppf
    "%-10s time=%.4fs slowdown(native)=%.1fx slowdown(nulgrind)=%.1fx \
     space=%d words (%.2fx)"
    m.tool m.time_s (median m.slowdown_native) (median m.slowdown_nulgrind)
    m.space_words m.space_overhead
