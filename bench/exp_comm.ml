(* Communication characterization (the paper's future-work direction and
   its reference [12], Kalibera et al.): how much do the benchmarks
   really interact through shared memory, and through how many distinct
   producer/consumer pairs?  The cited observation — "even widespread
   multi-threaded benchmarks do not interact much or interact only in
   limited ways" — shows up here as a high share of single-pair cells. *)

module Comm = Aprof_core.Comm_profiler

let run ppf =
  Exp_common.section ppf
    "comm: shared-memory communication at routine granularity";
  Format.fprintf ppf "  %-14s %10s %10s %12s %14s@." "benchmark" "values"
    "cells" "single-pair" "thread edges";
  List.iter
    (fun name ->
      let r = Exp_common.run_named name in
      let c = Comm.create () in
      Aprof_trace.Trace.replay r.Exp_common.result.Aprof_vm.Interp.trace (Comm.on_batch c);
      let report = Comm.report c in
      Format.fprintf ppf "  %-14s %10d %10d %11.0f%% %14d@." name
        report.Comm.total_values report.Comm.communicating_cells
        (if report.Comm.communicating_cells = 0 then 0.
         else
           100.
           *. float_of_int report.Comm.single_pair_cells
           /. float_of_int report.Comm.communicating_cells)
        (List.length report.Comm.thread_matrix))
    [
      "producer_consumer"; "vips"; "dedup"; "fluidanimate"; "bodytrack";
      "canneal"; "nab"; "smithwa"; "mysqlslap";
    ];
  (* the headline routine-level view on vips *)
  let vips = Exp_common.run_named ~scale:60 "vips" in
  let c = Comm.create () in
  Aprof_trace.Trace.replay vips.Exp_common.result.Aprof_vm.Interp.trace (Comm.on_batch c);
  let tbl = vips.Exp_common.result.Aprof_vm.Interp.routines in
  let report = Comm.report c in
  let top = List.filteri (fun i _ -> i < 8) report.Comm.routine_matrix in
  Format.fprintf ppf "  top vips producer -> consumer routine edges:@.";
  List.iter
    (fun e ->
      let name = function
        | -2 -> "<kernel>"
        | -1 -> "<toplevel>"
        | id -> Aprof_trace.Routine_table.name tbl id
      in
      Format.fprintf ppf "    %22s -> %-22s %8d@." (name e.Comm.from_id)
        (name e.Comm.to_id) e.Comm.values)
    top
