(* Figure 16: time and space overhead as a function of the number of
   threads on the OMP suite. *)

module Harness = Aprof_tools.Harness

let thread_counts = [ 1; 2; 4; 8 ]

(* Five rounds in a full run, not [Exp_common.rounds]: each of the 56
   (thread count, workload) cells samples seven tools for at least
   0.02 s a round, so the full run takes about 40 s. *)
let run ?(quick = false) ppf =
  Exp_common.section ppf
    "fig16: overhead as a function of the number of threads (OMP suite)";
  let rounds = if quick then Exp_common.rounds ~quick else 5 in
  let min_events = if quick then 10_000 else 20_000 in
  let names = Exp_common.omp_suite () in
  let per_thread =
    List.map
      (fun threads ->
        ( threads,
          Harness.geometric_rows
            (Exp_table1.measure_suite ~rounds ~threads ~min_events names) ))
      thread_counts
  in
  let tools =
    match per_thread with
    | (_, rows) :: _ -> List.map (fun (t, _, _, _) -> t) rows
    | [] -> []
  in
  Format.fprintf ppf "  (a) slowdown vs native replay@.";
  Format.fprintf ppf "    %-10s" "tool";
  List.iter (fun t -> Format.fprintf ppf " %8s" (Printf.sprintf "%dthr" t)) thread_counts;
  Format.fprintf ppf "@.";
  List.iter
    (fun tool ->
      Format.fprintf ppf "    %-10s" tool;
      List.iter
        (fun (_, rows) ->
          let _, native, _, _ = List.find (fun (t, _, _, _) -> t = tool) rows in
          Format.fprintf ppf " %7.1fx" native.Exp_common.Stats.median)
        per_thread;
      Format.fprintf ppf "@.")
    tools;
  Format.fprintf ppf "  (b) space overhead@.";
  Format.fprintf ppf "    %-10s" "tool";
  List.iter (fun t -> Format.fprintf ppf " %8s" (Printf.sprintf "%dthr" t)) thread_counts;
  Format.fprintf ppf "@.";
  List.iter
    (fun tool ->
      Format.fprintf ppf "    %-10s" tool;
      List.iter
        (fun (_, rows) ->
          let _, _, _, space = List.find (fun (t, _, _, _) -> t = tool) rows in
          Format.fprintf ppf " %7.2fx" space)
        per_thread;
      Format.fprintf ppf "@.")
    tools;
  Format.fprintf ppf
    "  (paper shape: slowdown and space grow with threads; in the paper \
     aprof-drms stays below helgrind throughout — here the small simulated \
     heaps let the per-thread shadows pass helgrind at high thread counts)@."
