(* Figure 1: the two worked interleaving examples — the profiler's
   outputs are checked against the values stated in the paper. *)

module Profile = Aprof_core.Profile

let run_micro trace =
  let p = Aprof_core.Drms_profiler.create () in
  Aprof_trace.Trace.replay trace (Aprof_core.Drms_profiler.on_batch p);
  Aprof_core.Drms_profiler.finish p

let values profile ~tid ~routine =
  match Profile.data profile { Profile.tid; routine } with
  | None -> (0, 0)
  | Some d ->
    ( int_of_float d.Profile.sum_rms,
      int_of_float d.Profile.sum_drms )

let run ppf =
  Exp_common.section ppf "fig1: dynamic read memory size examples";
  let trace_a, tbl_a = Aprof_workloads.Micro.fig1a () in
  let pa = run_micro trace_a in
  let f = Option.get (Aprof_trace.Routine_table.find tbl_a "f") in
  let rms_f, drms_f = values pa ~tid:0 ~routine:f in
  Format.fprintf ppf
    "  fig1a: rms(f) = %d (paper: 1), drms(f) = %d (paper: 2)@." rms_f drms_f;
  let trace_b, tbl_b = Aprof_workloads.Micro.fig1b () in
  let pb = run_micro trace_b in
  let fb = Option.get (Aprof_trace.Routine_table.find tbl_b "f") in
  let hb = Option.get (Aprof_trace.Routine_table.find tbl_b "h") in
  let rms_f, drms_f = values pb ~tid:0 ~routine:fb in
  let rms_h, drms_h = values pb ~tid:0 ~routine:hb in
  Format.fprintf ppf
    "  fig1b: rms(f) = %d (1), drms(f) = %d (2); rms(h) = %d (1), drms(h) = %d (1)@."
    rms_f drms_f rms_h drms_h
