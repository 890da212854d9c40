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

(* The goldens sit beside this file.  [dune test] runs the suite in the
   build copy of test/, where they are dependencies; [dune exec
   test/test_main.exe] runs it from the repository root, where
   [__FILE__] is test/test_golden.ml. *)
let golden_dir =
  let beside_source = Filename.concat (Filename.dirname __FILE__) "golden" in
  if Sys.file_exists beside_source then beside_source else "golden"

let golden_path file = Filename.concat golden_dir file

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
  | Ok (loaded, names, _) ->
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
      Aprof_core.Run_meta.workload = "mysqlslap";
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

(* The model store fitted from the pinned mysqlslap profile, as [aprof
   fit --profile golden/mysqlslap.profile.csv --seed 1 --bootstrap 40
   --store] writes it.  [aprof diff] reads these files, so a fitting
   change that moves a single digit shows here. *)
let store_case () =
  let module Store = Aprof_analysis.Model_store in
  let csv =
    In_channel.with_open_bin (golden_path "mysqlslap.profile.csv")
      In_channel.input_all
  in
  match Profile_io.of_string csv with
  | Error e -> Alcotest.failf "golden profile does not load: %s" e
  | Ok (profile, names, meta) ->
    let routine_name id =
      match List.assoc_opt id names with
      | Some n -> n
      | None -> Printf.sprintf "routine_%d" id
    in
    let entries = Store.analyze ~bootstrap:40 ~seed:1 ~routine_name profile in
    check_golden "mysqlslap.model"
      (Store.to_string (Store.create ?meta entries))

(* ----- aprof record's bytes --------------------------------------------- *)

(* What [aprof record] writes, pinned over the whole registry: one line
   per workload × format × chunk size, the MD5 of the indexed
   [batch_writer] files of ten runs (the five scheduler policies of
   [--scheduler], each at seeds 1 and 2, four threads), in that order.
   One VM run feeds every writer at once: a writer's bytes do not depend
   on how its events arrive in batches.  blackscholes at scale 20000
   also fills version-3 chunks up to their 65,536-event cap.  The same
   runs check that [to_string] writes the file's bytes up to its shard
   index footer. *)
let record_policies =
  let open Aprof_vm.Scheduler in
  [
    Round_robin { slice = 64 };
    Serialized;
    Random_preemptive { min_slice = 8; max_slice = 96 };
    Work_stealing { workers = 4; slice = 64 };
    Async_io { slice = 64; io_delay = 16 };
  ]

let record_writers =
  List.concat_map
    (fun fmt -> List.map (fun chunk -> (fmt, chunk)) [ None; Some 512 ])
    [ ("v1", 1, false); ("v2", 2, false); ("v3", 3, false); ("v3e", 3, true) ]

(* An indexed file's bytes before its footer, located by the trailer. *)
let before_footer file =
  let total = String.length file in
  let off = ref 0 in
  for i = 7 downto 0 do
    off := (!off lsl 8) lor Char.code file.[total - 12 + i]
  done;
  String.sub file 0 !off

let record_rows (spec : Workload.spec) ~scale =
  let module Codec = Aprof_trace.Trace_codec in
  let files =
    List.map (fun _ -> Filename.temp_file "aprof_record" ".atrc") record_writers
  in
  let outputs = List.map (fun _ -> Buffer.create 4096) record_writers in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove files)
    (fun () ->
      List.iter
        (fun scheduler ->
          List.iter
            (fun seed ->
              let ocs = List.map Out_channel.open_bin files in
              let trace = Aprof_trace.Trace.create () in
              let sinks = ref [] in
              let result =
                Workload.run_batched ~scheduler
                  (spec.Workload.make ~threads:4 ~scale ~seed)
                  ~seed
                  ~tool:(fun routines ->
                    let routine_name =
                      Aprof_trace.Routine_table.name routines
                    in
                    sinks :=
                      List.map2
                        (fun ((_, format_version, entropy), chunk_bytes) oc ->
                          Codec.batch_writer ?chunk_bytes ~format_version
                            ~entropy ~routine_name oc)
                        record_writers ocs;
                    fun b ->
                      Aprof_trace.Trace.add_batch trace b;
                      List.iter
                        (fun s -> s.Aprof_trace.Trace_stream.emit_batch b)
                        !sinks)
              in
              List.iter
                (fun s -> s.Aprof_trace.Trace_stream.close_batch ())
                !sinks;
              List.iter Out_channel.close ocs;
              let routine_name =
                Aprof_trace.Routine_table.name result.Interp.routines
              in
              List.iter2
                (fun (((label, format_version, entropy), chunk_bytes), file)
                     out ->
                  let bytes =
                    In_channel.with_open_bin file In_channel.input_all
                  in
                  Buffer.add_string out bytes;
                  if chunk_bytes = None then
                    Alcotest.(check bool)
                      (Printf.sprintf
                         "%s %s seed %d: to_string is the file up to its \
                          footer"
                         spec.Workload.name label seed)
                      true
                      (Codec.to_string ~format_version ~entropy ~routine_name
                         trace
                      = before_footer bytes))
                (List.combine record_writers files)
                outputs)
            [ 1; 2 ])
        record_policies);
  List.map2
    (fun ((label, _, _), chunk_bytes) out ->
      Printf.sprintf "%s %d %s %s %s" spec.Workload.name scale label
        (match chunk_bytes with None -> "default" | Some n -> string_of_int n)
        (Digest.to_hex (Digest.string (Buffer.contents out))))
    record_writers outputs

let record_case () =
  let rows =
    List.concat_map (fun spec -> record_rows spec ~scale:40) Registry.all
    @ record_rows (Option.get (Registry.find "blackscholes")) ~scale:20000
  in
  check_golden "record_digests.txt" (String.concat "\n" rows ^ "\n")

(* ----- the profilers' profiles ------------------------------------------ *)

(* What the registry's [drms] and [rms] profilers compute, pinned over
   the whole registry: one line per workload × scheduler policy × seed ×
   profiler, the MD5 of the [Profile_io.to_string] dump (routine names
   included) of one live run at four threads.  Both profilers take the
   same batches of one VM run. *)
let profile_rows (spec : Workload.spec) ~scale =
  let profilers =
    List.filter
      (fun (name, _) -> name = "drms" || name = "rms")
      Aprof_tools.Harness.profilers
  in
  List.concat_map
    (fun scheduler ->
      List.concat_map
        (fun seed ->
          let runs =
            List.map
              (fun (name, (module P : Aprof_tools.Tool.Profiler)) ->
                let p = P.create () in
                (name, P.on_batch p, fun () -> P.finish p))
              profilers
          in
          let result =
            Workload.run_batched ~scheduler
              (spec.Workload.make ~threads:4 ~scale ~seed)
              ~seed
              ~tool:(fun _ b -> List.iter (fun (_, feed, _) -> feed b) runs)
          in
          let routine_name =
            Aprof_trace.Routine_table.name result.Interp.routines
          in
          List.map
            (fun (name, _, finish) ->
              Printf.sprintf "%s %d %s %d %s %s" spec.Workload.name scale
                (Aprof_vm.Scheduler.policy_name scheduler)
                seed name
                (Digest.to_hex
                   (Digest.string
                      (Profile_io.to_string ~routine_name (finish ())))))
            runs)
        [ 1; 2 ])
    record_policies

let profile_case () =
  let rows =
    List.concat_map (fun spec -> profile_rows spec ~scale:40) Registry.all
  in
  check_golden "profile_digests.txt" (String.concat "\n" rows ^ "\n")

let suite =
  [
    Alcotest.test_case "producer_consumer report" `Quick
      (run_case ~workload:"producer_consumer" ~threads:4 ~scale:60);
    Alcotest.test_case "cost diff report" `Quick diff_case;
    Alcotest.test_case "mysqlslap report" `Quick
      (run_case ~workload:"mysqlslap" ~threads:4 ~scale:40);
    Alcotest.test_case "producer_consumer helgrind report" `Quick
      (helgrind_case ~workload:"producer_consumer" ~threads:4 ~scale:60);
    Alcotest.test_case "mysqlslap fitted store" `Quick store_case;
    Alcotest.test_case "aprof record bytes" `Quick record_case;
    Alcotest.test_case "profiler profiles" `Quick profile_case;
  ]
