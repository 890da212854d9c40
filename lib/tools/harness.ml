module Trace = Aprof_trace.Trace
module Batch = Aprof_trace.Event.Batch

type measurement = {
  tool : string;
  time_s : float;
  slowdown_native : float;
  slowdown_nulgrind : float;
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

(* Mean CPU seconds of [f] per call, repeating until [min_time] total. *)
let time_of ~min_time f =
  let runs = ref 0 in
  let start = Sys.time () in
  let elapsed () = Sys.time () -. start in
  while !runs = 0 || elapsed () < min_time do
    f ();
    incr runs
  done;
  elapsed () /. float_of_int !runs

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
   for uninstrumented execution); each tool replays the same trace. *)
let measure ?(min_time = 0.05) ~trace ~program_words tools =
  (* A fresh instance of [M], fed the whole trace. *)
  let replay (type a) (module M : Tool.S with type state = a) =
    let st = M.create () in
    Trace.replay trace (M.on_batch st);
    st
  in
  let native_time = time_of ~min_time (fun () -> native_replay trace) in
  let nulgrind_time =
    time_of ~min_time (fun () -> ignore (replay (module Nulgrind)))
  in
  let program_words = max program_words 1 in
  List.map
    (fun (module M : Tool.S) ->
      (* Time fresh instances end to end... *)
      let time_s = time_of ~min_time (fun () -> ignore (replay (module M))) in
      (* ...and keep one instance for space and summary. *)
      let st = replay (module M) in
      let space_words = M.space_words st in
      {
        tool = M.name;
        time_s;
        slowdown_native = time_s /. Float.max native_time 1e-9;
        slowdown_nulgrind = time_s /. Float.max nulgrind_time 1e-9;
        space_words;
        space_overhead =
          float_of_int (program_words + space_words)
          /. float_of_int program_words;
        summary = M.summary st;
      })
    tools

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
        let geo f = Aprof_util.Stats.geometric_mean (List.map f same) in
        ( m0.tool,
          geo (fun m -> m.slowdown_native),
          geo (fun m -> m.slowdown_nulgrind),
          geo (fun m -> m.space_overhead) ))
      first

let pp_measurement ppf m =
  Format.fprintf ppf
    "%-10s time=%.4fs slowdown(native)=%.1fx slowdown(nulgrind)=%.1fx \
     space=%d words (%.2fx)"
    m.tool m.time_s m.slowdown_native m.slowdown_nulgrind m.space_words
    m.space_overhead
