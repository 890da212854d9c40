(* Quickstart: write a tiny concurrent program in the DSL, run it under
   the VM, profile the trace with the drms profiler, and read the result.

     dune exec examples/quickstart.exe *)

open Aprof_vm.Program

(* A worker sums the same array twice; the main thread refills it between
   the two rounds.  A classic input-sensitive profiler (rms) counts the
   array once — the second round re-reads known locations — but the
   refill is genuinely new input, and the drms sees both rounds. *)
let program ~n =
  let* data = alloc n in
  let* ready = sem_create 0 in
  let* consumed = sem_create 0 in
  let* worker =
    spawn
      (call "sum_array"
         (for_ 1 2 (fun _ ->
              let* () = sem_wait ready in
              let* total =
                fold_range 0 (n - 1) 0 (fun i acc ->
                    let* v = read (data + i) in
                    let* () = compute 1 in
                    return (acc + v))
              in
              let* () = compute (total land 1) in
              sem_post consumed)))
  in
  let* () =
    for_ 1 2 (fun round ->
        let* () =
          call "fill_array"
            (for_ 0 (n - 1) (fun i -> write (data + i) (round * i)))
        in
        let* () = sem_post ready in
        sem_wait consumed)
  in
  join worker

let () =
  let n = 100 in
  (* 1. execute the program, streaming its instrumentation events into
     the drms profiler as the VM emits them *)
  let profiler = Aprof_core.Drms_profiler.create () in
  let result =
    Aprof_vm.Interp.run_batched
      { Aprof_vm.Interp.default_config with seed = 1 }
      [ program ~n ]
      ~tool:(fun _ -> Aprof_core.Drms_profiler.on_batch profiler)
  in
  Printf.printf "trace: %d events\n" result.events_emitted;

  (* 2. collect the profile *)
  let profile = Aprof_core.Drms_profiler.finish profiler in

  (* 3. inspect the sum_array routine *)
  let rid =
    Option.get (Aprof_trace.Routine_table.find result.routines "sum_array")
  in
  let data = List.assoc rid (Aprof_core.Profile.merge_threads profile) in
  List.iter
    (fun (p : Aprof_core.Profile.point) ->
      Printf.printf "sum_array: rms  = %3d  (the array, counted once)\n"
        p.Aprof_core.Profile.input)
    data.Aprof_core.Profile.rms_points;
  List.iter
    (fun (p : Aprof_core.Profile.point) ->
      Printf.printf
        "sum_array: drms = %3d  (both refills: its real dynamic workload), \
         cost = %d BB\n"
        p.Aprof_core.Profile.input p.Aprof_core.Profile.max_cost)
    data.Aprof_core.Profile.drms_points;
  match Aprof_core.Metrics.induced_breakdown data with
  | Some (thread, _) ->
    Printf.printf "induced first-reads from other threads: %.0f%%\n"
      (100. *. thread)
  | None -> ()
