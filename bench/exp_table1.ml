(* Table 1: slowdown and space overhead of aprof-drms against nulgrind,
   memcheck, callgrind, helgrind and plain aprof, aggregated by
   geometric mean over the PARSEC and OMP suites.  With [--json], each
   geometric-mean row is also emitted (experiment "table1"), with the
   host's core count. *)

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
        ~program_words:r.Exp_common.result.Aprof_vm.Interp.memory_high_water
        r.Exp_common.result.Aprof_vm.Interp.trace)
    names

let print_rows ppf ~key suite rows =
  let cores = Aprof_util.Par.available_parallelism () in
  Format.fprintf ppf "  %s:@." suite;
  Format.fprintf ppf "    %-10s %18s %20s %16s@." "tool" "slowdown(native)"
    "slowdown(nulgrind)" "space overhead";
  List.iter
    (fun (tool, native, nul, space) ->
      Format.fprintf ppf "    %-10s %17.1fx %19.2fx %15.2fx@." tool native nul
        space;
      Exp_common.emit_row ~experiment:"table1"
        [
          ("suite", Exp_common.String key);
          ("tool", Exp_common.String tool);
          ("slowdown_nulgrind", Exp_common.Float nul);
          ("space_overhead", Exp_common.Float space);
          ("cores", Exp_common.Int cores);
        ])
    rows

let run ?(quick = false) ppf =
  Exp_common.section ppf
    "table1: performance comparison with aprof and Valgrind tools (geom. means)";
  let scale = if quick then 150 else 300 in
  let min_events = if quick then 15_000 else 30_000 in
  let parsec = measure_suite ~scale ~min_events (Exp_common.parsec_suite ()) in
  let omp = measure_suite ~scale ~min_events (Exp_common.omp_suite ()) in
  print_rows ppf ~key:"parsec" "PARSEC 2.1 (miniatures)"
    (Harness.geometric_rows parsec);
  print_rows ppf ~key:"omp" "SPEC OMP2012 (miniatures)"
    (Harness.geometric_rows omp);
  Format.fprintf ppf
    "  (paper shape: nulgrind fastest; memcheck/callgrind midfield; aprof-drms \
     ~1.3x aprof; helgrind slowest and most space-hungry of the \
     concurrency-aware tools)@."
