(* Figure 16: time and space overhead as a function of the number of
   threads on the OMP suite. *)

module Harness = Aprof_tools.Harness

let thread_counts = [ 1; 2; 4; 8 ]

let run ?(quick = false) ppf =
  Exp_common.section ppf
    "fig16: overhead as a function of the number of threads (OMP suite)";
  let scale = if quick then 150 else 300 in
  let names = Exp_common.omp_suite () in
  let per_thread =
    List.map
      (fun threads ->
        let rows =
          Harness.geometric_rows
            (List.map
               (fun name ->
                 let r =
                   Exp_table1.sized_run ~threads ~scale
                     ~min_events:(if quick then 10_000 else 20_000) name
                 in
                 Harness.measure
                   ~trace:r.Exp_common.result.Aprof_vm.Interp.trace
                   ~program_words:
                     r.Exp_common.result.Aprof_vm.Interp.memory_high_water
                   Harness.tools)
               names)
        in
        (threads, rows))
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
          Format.fprintf ppf " %7.1fx" native)
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
