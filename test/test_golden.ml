(* Golden-file regression tests for the CLI `report` pipeline: a fixed
   (workload, threads, scale, seed, scheduler) runs under the default
   deterministic round-robin scheduler, the profile is saved as CSV
   (exactly what `aprof run -o` writes) and rendered (exactly what
   `aprof report` prints), and both are compared against committed
   expectations under test/golden/.

   Output is normalized — CRLF and trailing whitespace stripped — so the
   comparison survives editors and platforms; everything else is pinned,
   including float formatting.  To regenerate after an intentional
   change:

     APROF_WRITE_GOLDEN=$PWD/test/golden dune exec test/test_main.exe -- test golden *)

open Helpers
module Workload = Aprof_workloads.Workload
module Registry = Aprof_workloads.Registry
module Profile_io = Aprof_core.Profile_io
module Interp = Aprof_vm.Interp

let normalize s =
  String.split_on_char '\n' s
  |> List.map (fun line ->
         let line =
           if String.length line > 0 && line.[String.length line - 1] = '\r'
           then String.sub line 0 (String.length line - 1)
           else line
         in
         let n = ref (String.length line) in
         while !n > 0 && line.[!n - 1] = ' ' do
           decr n
         done;
         String.sub line 0 !n)
  |> String.concat "\n"
  |> String.trim

let golden_path file = Filename.concat "golden" file

let check_golden file actual =
  match Sys.getenv_opt "APROF_WRITE_GOLDEN" with
  | Some dir ->
    Out_channel.with_open_bin (Filename.concat dir file) (fun oc ->
        output_string oc actual);
    Printf.printf "wrote %s\n" (Filename.concat dir file)
  | None ->
    let expected =
      try In_channel.with_open_bin (golden_path file) In_channel.input_all
      with Sys_error e ->
        Alcotest.failf
          "missing golden file %s (%s) — regenerate with \
           APROF_WRITE_GOLDEN=.../test/golden"
          file e
    in
    Alcotest.(check string)
      (Printf.sprintf "%s matches" file)
      (normalize expected) (normalize actual)

let run_case ~workload ~threads ~scale () =
  let spec =
    match Registry.find workload with
    | Some s -> s
    | None -> Alcotest.failf "unknown workload %s" workload
  in
  (* The default round-robin scheduler: fully deterministic. *)
  let result = Workload.run_spec spec ~threads ~scale ~seed:42 in
  let profile = run_drms result.Interp.trace in
  let routine_name =
    Aprof_trace.Routine_table.name result.Interp.routines
  in
  let csv = Profile_io.to_string ~routine_name profile in
  check_golden (workload ^ ".profile.csv") csv;
  (* The `report` path renders what it loads from the CSV, names included. *)
  (match Profile_io.of_string csv with
  | Error e -> Alcotest.failf "saved CSV does not load back: %s" e
  | Ok (loaded, names) ->
    let name id =
      match List.assoc_opt id names with
      | Some n -> n
      | None -> Printf.sprintf "routine_%d" id
    in
    check_golden (workload ^ ".report.txt")
      (Profile_io.render_report ~routine_name:name loaded))

(* The helgrind race report is pinned too: race lines and summary, as
   `aprof tools` prints them.  The round-robin scheduler makes the
   interleaving — hence the detected races and their order — exact. *)
let helgrind_case ~workload ~threads ~scale () =
  let spec =
    match Registry.find workload with
    | Some s -> s
    | None -> Alcotest.failf "unknown workload %s" workload
  in
  let result = Workload.run_spec spec ~threads ~scale ~seed:42 in
  let h = Aprof_tools.Helgrind_lite.create () in
  Aprof_trace.Trace.replay result.Interp.trace (Aprof_tools.Helgrind_lite.on_batch h);
  check_golden (workload ^ ".helgrind.txt")
    (Aprof_tools.Helgrind_lite.render_report h)

(* The `aprof diff` rendering is pinned from a hand-built store pair
   exercising every finding kind: a confident class regression, a
   below-gate (info) class change, a slope regression, a divergence
   appearance, and routines present on only one side. *)
let diff_case () =
  let module Basis = Aprof_analysis.Fit_basis in
  let module Store = Aprof_analysis.Model_store in
  let module Diff = Aprof_analysis.Cost_diff in
  let meta seed =
    {
      Aprof_analysis.Run_meta.workload = "mysqlslap";
      seed;
      scale = 40;
      threads = 4;
      scheduler = "round-robin(64)";
    }
  in
  let entry routine metric cls coefs confidence =
    {
      Store.routine;
      metric;
      cls;
      coefs;
      n_points = 12;
      r2 = 0.99;
      confidence;
      exponent = Some (1.0, 0.9, 1.1);
    }
  in
  let old_store =
    Store.create ~meta:(meta 1)
      [
        entry "query_exec" `Drms Basis.Linear [| 5.; 3. |] 0.95;
        entry "query_exec" `Rms Basis.Linear [| 5.; 3. |] 0.95;
        entry "row_scan" `Drms Basis.Quadratic [| 1.; 0.; 0.5 |] 0.6;
        entry "cache_probe" `Drms Basis.Linear [| 2.; 8. |] 0.9;
        entry "cache_probe" `Rms Basis.Linear [| 2.; 8. |] 0.9;
        entry "hash_insert" `Drms Basis.Linear [| 2.; 3. |] 0.9;
        entry "retired" `Drms Basis.Constant [| 7. |] 1.0;
      ]
  in
  let new_store =
    Store.create ~meta:(meta 2)
      [
        entry "query_exec" `Drms Basis.Quadratic [| 5.; 3.; 0.2 |] 0.92;
        entry "query_exec" `Rms Basis.Linear [| 5.; 3. |] 0.95;
        entry "row_scan" `Drms Basis.Cubic [| 1.; 0.; 0.; 0.1 |] 0.55;
        entry "cache_probe" `Drms Basis.Plateau [| 2.; 8.; 600. |] 0.9;
        entry "cache_probe" `Rms Basis.Linear [| 2.; 8. |] 0.9;
        entry "hash_insert" `Drms Basis.Linear [| 2.; 9. |] 0.9;
        entry "fresh" `Drms Basis.Logarithmic [| 1.; 4. |] 1.0;
      ]
  in
  match Diff.diff old_store new_store with
  | Error e -> Alcotest.failf "diff refused: %s" e
  | Ok report ->
    Alcotest.(check bool) "has regression" true (Diff.has_regression report);
    check_golden "cost_diff.report.txt" (Diff.render report);
    check_golden "cost_diff.report.json" (Diff.to_json report ^ "\n")

let suite =
  [
    Alcotest.test_case "producer_consumer report" `Quick
      (run_case ~workload:"producer_consumer" ~threads:4 ~scale:60);
    Alcotest.test_case "cost diff report" `Quick diff_case;
    Alcotest.test_case "mysqlslap report" `Quick
      (run_case ~workload:"mysqlslap" ~threads:4 ~scale:40);
    Alcotest.test_case "producer_consumer helgrind report" `Quick
      (helgrind_case ~workload:"producer_consumer" ~threads:4 ~scale:60);
  ]
