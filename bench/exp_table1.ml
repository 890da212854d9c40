(* Table 1: slowdown and space overhead of aprof-drms against nulgrind,
   memcheck, callgrind, helgrind and plain aprof, aggregated by
   geometric mean over the PARSEC and OMP suites. *)

module Harness = Aprof_tools.Harness
module Workload = Aprof_workloads.Workload

(* Grow the scale until the trace is large enough that per-event handler
   cost (not tool construction) dominates the timing. *)
let rec sized_run ~threads ~scale ~min_events name =
  let r = Exp_common.run_named ~threads ~scale name in
  if
    Aprof_trace.Trace.length r.Exp_common.result.Aprof_vm.Interp.trace
    >= min_events
    || scale > 64 * min_events
  then r
  else sized_run ~threads ~scale:(scale * 2) ~min_events name

let measure_suite ?(threads = 4) ?(scale = 300) ?(min_events = 40_000) names =
  List.map
    (fun name ->
      let r = sized_run ~threads ~scale ~min_events name in
      Harness.measure
        ~trace:r.Exp_common.result.Aprof_vm.Interp.trace
        ~program_words:r.Exp_common.result.Aprof_vm.Interp.memory_high_water
        Harness.tools)
    names

let print_rows ppf suite rows =
  Format.fprintf ppf "  %s:@." suite;
  Format.fprintf ppf "    %-10s %18s %20s %16s@." "tool" "slowdown(native)"
    "slowdown(nulgrind)" "space overhead";
  List.iter
    (fun (tool, native, nul, space) ->
      Format.fprintf ppf "    %-10s %17.1fx %19.2fx %15.2fx@." tool native nul
        space)
    rows

let run ?(quick = false) ppf =
  Exp_common.section ppf
    "table1: performance comparison with aprof and Valgrind tools (geom. means)";
  let scale = if quick then 150 else 300 in
  let min_events = if quick then 15_000 else 30_000 in
  let parsec = measure_suite ~scale ~min_events (Exp_common.parsec_suite ()) in
  let omp = measure_suite ~scale ~min_events (Exp_common.omp_suite ()) in
  print_rows ppf "PARSEC 2.1 (miniatures)" (Harness.geometric_rows parsec);
  print_rows ppf "SPEC OMP2012 (miniatures)" (Harness.geometric_rows omp);
  Format.fprintf ppf
    "  (paper shape: nulgrind fastest; memcheck/callgrind midfield; aprof-drms \
     ~1.3x aprof; helgrind slowest and most space-hungry of the \
     concurrency-aware tools)@."
