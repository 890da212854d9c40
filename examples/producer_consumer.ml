(* The paper's motivating pattern (Figure 2): a consumer whose whole
   workload arrives through one shared memory cell.  Sweeps the item
   count and prints how the two metrics see the consumer.

     dune exec examples/producer_consumer.exe *)

module Profile = Aprof_core.Profile

let profile_consumer ~n =
  let p = Aprof_core.Drms_profiler.create () in
  let result =
    Aprof_workloads.Workload.run_batched
      (Aprof_workloads.Patterns.producer_consumer ~n)
      ~seed:17
      ~tool:(fun _ -> Aprof_core.Drms_profiler.on_batch p)
  in
  let profile = Aprof_core.Drms_profiler.finish p in
  let rid =
    Option.get
      (Aprof_trace.Routine_table.find result.Aprof_vm.Interp.routines "consumer")
  in
  let d = List.assoc rid (Profile.merge_threads profile) in
  (int_of_float d.Profile.sum_rms, int_of_float d.Profile.sum_drms,
   int_of_float d.Profile.total_cost)

let () =
  print_endline "consumer routine under the two input-size metrics:";
  Printf.printf "%8s %8s %8s %10s\n" "items" "rms" "drms" "cost(BB)";
  List.iter
    (fun n ->
      let rms, drms, cost = profile_consumer ~n in
      Printf.printf "%8d %8d %8d %10d\n" n rms drms cost)
    [ 10; 20; 40; 80; 160; 320 ];
  print_endline
    "\nThe rms never moves: the consumer always re-reads the same cell.";
  print_endline
    "The drms counts each refill as induced input and tracks the workload,";
  print_endline "so only the drms/cost relation reveals the linear behaviour."
