(* Table 1: slowdown and space overhead of aprof-drms against nulgrind,
   memcheck, callgrind, helgrind and plain aprof, aggregated by
   geometric mean over the PARSEC and OMP suites.  With [--json], each
   geometric-mean row is also emitted (experiment "table1"), with the
   host's core count. *)

module Harness = Aprof_tools.Harness
module Workload = Aprof_workloads.Workload

(* [measure_suite ~rounds ~threads ~min_events names] samples every tool
   on each workload sized to [min_events] (enough that per-event handler
   cost, not tool construction, dominates the timing). *)
let measure_suite ~rounds ?(threads = 4) ~min_events names =
  List.map
    (fun name ->
      let r =
        Exp_common.sized ~scheduler:Exp_common.default_scheduler ~threads
          ~target:min_events name
      in
      Harness.measure ~now:Unix.gettimeofday ~rounds
        ~program_words:r.Aprof_vm.Interp.memory_high_water
        r.Aprof_vm.Interp.trace)
    names

let print_rows ppf ~rounds ~key suite rows =
  Format.fprintf ppf "  %s:@." suite;
  Format.fprintf ppf "    %-10s %18s %20s %16s@." "tool" "slowdown(native)"
    "slowdown(nulgrind)" "space overhead";
  List.iter
    (fun (tool, native, nul, space) ->
      Format.fprintf ppf "    %-10s %17.1fx %19.2fx %15.2fx@." tool
        native.Exp_common.Stats.median nul.Exp_common.Stats.median space;
      Exp_common.emit_row ~experiment:"table1" ~rounds
        ([ ("suite", Exp_common.String key); ("tool", Exp_common.String tool) ]
        @ Exp_common.metric "slowdown_nulgrind" nul
        @ Exp_common.metric "slowdown_native" native
        @ [ ("space_overhead", Exp_common.Float space) ]))
    rows

let run ?(quick = false) ppf =
  Exp_common.section ppf
    "table1: performance comparison with aprof and Valgrind tools (geom. means)";
  let rounds = Exp_common.rounds ~quick in
  let min_events = if quick then 15_000 else 30_000 in
  let parsec = measure_suite ~rounds ~min_events (Exp_common.parsec_suite ()) in
  let omp = measure_suite ~rounds ~min_events (Exp_common.omp_suite ()) in
  print_rows ppf ~rounds ~key:"parsec" "PARSEC 2.1 (miniatures)"
    (Harness.geometric_rows parsec);
  print_rows ppf ~rounds ~key:"omp" "SPEC OMP2012 (miniatures)"
    (Harness.geometric_rows omp);
  Format.fprintf ppf
    "  (paper shape: nulgrind fastest; memcheck/callgrind midfield; aprof-drms \
     ~1.3x aprof; helgrind slowest and most space-hungry of the \
     concurrency-aware tools)@."
