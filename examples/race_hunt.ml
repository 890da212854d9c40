(* Beyond profiling: the same trace feeds the whole tool suite.  Here the
   happens-before race detector checks a correct and a deliberately broken
   variant of a shared-counter program, and memcheck finds a leak.

     dune exec examples/race_hunt.exe *)

open Aprof_vm.Program

let counter_program ~locked =
  let* cell = alloc 1 in
  let* () = write cell 0 in
  let* m = Aprof_vm.Sync.Mutex.create () in
  let bump =
    let* v = read cell in
    let* () = compute 1 in
    write cell (v + 1)
  in
  let worker =
    for_ 1 25 (fun _ ->
        if locked then Aprof_vm.Sync.Mutex.with_lock m bump else bump)
  in
  let* a = spawn worker in
  let* b = spawn worker in
  let* () = join a in
  let* () = join b in
  (* leak on purpose: never deallocated *)
  let* _scratch = alloc 16 in
  return ()

let run_tools ~locked =
  let result =
    Aprof_vm.Interp.run
      {
        Aprof_vm.Interp.default_config with
        scheduler = Aprof_vm.Scheduler.Random_preemptive { min_slice = 1; max_slice = 4 };
        seed = 13;
      }
      [ counter_program ~locked ]
  in
  let hel = Aprof_tools.Helgrind_lite.create () in
  let mem = Aprof_tools.Memcheck_lite.create () in
  Aprof_trace.Trace.replay result.Aprof_vm.Interp.trace (fun b ->
      Aprof_tools.Helgrind_lite.on_batch hel b;
      Aprof_tools.Memcheck_lite.on_batch mem b);
  (Aprof_tools.Helgrind_lite.races hel, Aprof_tools.Memcheck_lite.leaks mem)

let () =
  let races, leaks = run_tools ~locked:true in
  Printf.printf "with the mutex:    %d races, %d leaked blocks\n"
    (List.length races) (List.length leaks);
  let races, _ = run_tools ~locked:false in
  Printf.printf "without the mutex: %d races\n" (List.length races);
  List.iter
    (fun r -> Format.printf "  %a@." Aprof_tools.Helgrind_lite.pp_race r)
    races
