(* Profile serialization: save/load must reproduce the profile exactly
   (points, aggregates, op counters, routine names). *)

open Helpers
module Profile = Aprof_core.Profile
module Profile_io = Aprof_core.Profile_io

let roundtrip profile =
  match Profile_io.of_string (Profile_io.to_string profile) with
  | Ok (p, _, _) -> p
  | Error e -> Alcotest.failf "load failed: %s" e

let test_roundtrip_workload () =
  let result =
    run_workload (Aprof_workloads.Mysql_sim.mysqlslap ~clients:3 ~queries:4
                    ~rows:80 ~seed:2)
  in
  let profile = run_drms result.Aprof_vm.Interp.trace in
  let back = roundtrip profile in
  check_profiles_equal "points survive roundtrip" profile back;
  check_ops_equal "ops survive roundtrip" profile back;
  (* aggregates too *)
  List.iter
    (fun k ->
      let a = Option.get (Profile.data profile k) in
      let b = Option.get (Profile.data back k) in
      Alcotest.(check int) "activations" a.Profile.activations b.Profile.activations;
      Alcotest.(check (float 1e-9)) "sum_rms" a.Profile.sum_rms b.Profile.sum_rms;
      Alcotest.(check (float 1e-9)) "sum_drms" a.Profile.sum_drms b.Profile.sum_drms;
      Alcotest.(check (float 1e-9)) "total_cost" a.Profile.total_cost b.Profile.total_cost)
    (Profile.keys profile)

let test_routine_names () =
  let result = run_workload (Aprof_workloads.Patterns.producer_consumer ~n:5) in
  let profile = run_drms result.Aprof_vm.Interp.trace in
  let tbl = result.Aprof_vm.Interp.routines in
  let dump =
    Profile_io.to_string ~routine_name:(Aprof_trace.Routine_table.name tbl)
      profile
  in
  match Profile_io.of_string dump with
  | Ok (_, names, _) ->
    let consumer = routine_id tbl "consumer" in
    Alcotest.(check (option string)) "name preserved" (Some "consumer")
      (List.assoc_opt consumer names)
  | Error e -> Alcotest.failf "load failed: %s" e

let test_metrics_survive () =
  let result = run_workload (Aprof_workloads.Patterns.stream_reader ~n:20) in
  let profile = run_drms result.Aprof_vm.Interp.trace in
  let back = roundtrip profile in
  Alcotest.(check (float 1e-9)) "input volume preserved"
    (Aprof_core.Metrics.dynamic_input_volume profile)
    (Aprof_core.Metrics.dynamic_input_volume back)

let test_format_versions () =
  let result = run_workload (Aprof_workloads.Patterns.producer_consumer ~n:5) in
  let profile = run_drms result.Aprof_vm.Interp.trace in
  let dump = Profile_io.to_string profile in
  let header = Printf.sprintf "format,%d\n" Profile_io.format_version in
  Alcotest.(check bool) "dump leads with the version header" true
    (String.length dump >= String.length header
    && String.sub dump 0 (String.length header) = header);
  (* The pre-versioning format had no header at all: such dumps must
     keep loading (as version 1). *)
  let headerless =
    String.sub dump (String.length header)
      (String.length dump - String.length header)
  in
  (match Profile_io.of_string headerless with
  | Ok (p, _, _) -> check_profiles_equal "headerless (v1) dump loads" profile p
  | Error e -> Alcotest.failf "headerless dump rejected: %s" e);
  (* An explicit version 1 header is accepted too. *)
  (match Profile_io.of_string ("format,1\n" ^ headerless) with
  | Ok (p, _, _) -> check_profiles_equal "explicit v1 header loads" profile p
  | Error e -> Alcotest.failf "v1 header rejected: %s" e);
  (* Versions we do not know how to read are refused, not misread. *)
  match Profile_io.of_string ("format,99\n" ^ headerless) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "future format version accepted"

let test_meta_roundtrip () =
  let result = run_workload (Aprof_workloads.Patterns.producer_consumer ~n:5) in
  let profile = run_drms result.Aprof_vm.Interp.trace in
  let meta =
    {
      Aprof_core.Run_meta.workload = "producer_consumer";
      seed = 7;
      scale = 5;
      threads = 2;
      scheduler = "round-robin(64)";
    }
  in
  let dump = Profile_io.to_string ~meta profile in
  (match Profile_io.of_string dump with
  | Ok (p, _, Some m) ->
    check_profiles_equal "profile survives with meta" profile p;
    Alcotest.(check string) "workload" "producer_consumer"
      m.Aprof_core.Run_meta.workload;
    Alcotest.(check int) "seed" 7 m.Aprof_core.Run_meta.seed;
    Alcotest.(check int) "scale" 5 m.Aprof_core.Run_meta.scale;
    Alcotest.(check int) "threads" 2 m.Aprof_core.Run_meta.threads;
    Alcotest.(check string) "scheduler" "round-robin(64)"
      m.Aprof_core.Run_meta.scheduler
  | Ok (_, _, None) -> Alcotest.fail "meta line lost"
  | Error e -> Alcotest.failf "load failed: %s" e);
  (* A dump without the meta line loads with [None], and the plain
     loader ignores the meta line entirely. *)
  (match Profile_io.of_string (Profile_io.to_string profile) with
  | Ok (_, _, None) -> ()
  | Ok (_, _, Some _) -> Alcotest.fail "phantom meta"
  | Error e -> Alcotest.failf "load failed: %s" e);
  (match Profile_io.of_string dump with
  | Ok (p, _, _) -> check_profiles_equal "plain loader skips meta" profile p
  | Error e -> Alcotest.failf "plain load failed: %s" e);
  (* A malformed meta line is an error, not a silent None. *)
  match Profile_io.of_string "format,3\nmeta,w,notanint,1,1,s\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad meta accepted"

let test_malformed () =
  List.iter
    (fun s ->
      match Profile_io.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected failure on %S" s)
    [
      "bogus,1,2";
      "point,1,2,xxx,1,1,1,1,1,1";
      "agg,a,b,c,d,e,f";
      (* Nothing is trimmed: a blank in a number field or before a
         record's kind is an error, and so is a line of blanks. *)
      "agg,0,1,1,2,2,5 ";
      "agg,0,1,1, 2,2,5";
      " agg,0,1,1,2,2,5";
      "format,3\n  \n";
      "format,3 ";
      (* Only a final CR is dropped: no writer writes another. *)
      "routine,1,a\rb";
      "routine,1,a\r\r\n";
      (* Every field is there. *)
      "routine,5";
      "format";
      "agg,0,1,1,2,2,5,";
    ]

(* A name holding a line break would end its [routine] record early and
   the rest would load as records of their own: here a routine 7 named
   "forged" with 99 activations.  The writer refuses such a name and
   writes every other name byte for byte. *)
let test_forged_name_refused () =
  let profile = Profile.create () in
  Profile.record_activation profile ~tid:0 ~routine:1 ~rms:2 ~drms:2 ~cost:5;
  List.iter
    (fun name ->
      match Profile_io.to_string ~routine_name:(fun _ -> name) profile with
      | dump -> Alcotest.failf "wrote %S as %S" name dump
      | exception Invalid_argument _ -> ())
    [ "r\nagg,0,7,99,1,1,1\nroutine,7,forged"; "r\rforged"; "r\n" ];
  (* Run metadata the reader could not return is refused too: a comma in
     the workload would shift every later field, a line break anywhere
     would plant records. *)
  let meta =
    {
      Aprof_core.Run_meta.workload = "w";
      seed = 1;
      scale = 1;
      threads = 1;
      scheduler = "s";
    }
  in
  List.iter
    (fun meta ->
      match Profile_io.to_string ~meta profile with
      | dump -> Alcotest.failf "wrote %S" dump
      | exception Invalid_argument _ -> ())
    [
      { meta with workload = "a,b" };
      { meta with workload = "a\nb" };
      { meta with scheduler = "s\nbogus,1" };
    ];
  let name = "a,b \"c\"\t\000\255" in
  match
    Profile_io.of_string
      (Profile_io.to_string ~routine_name:(fun _ -> name) profile)
  with
  | Ok (back, names, _) ->
    check_profiles_equal "profile kept" profile back;
    Alcotest.(check (list (pair int string))) "name written as given"
      [ (1, name) ] names
  | Error e -> Alcotest.failf "load failed: %s" e

let suite =
  [
    Alcotest.test_case "roundtrip equals original" `Quick test_roundtrip_workload;
    Alcotest.test_case "routine names" `Quick test_routine_names;
    Alcotest.test_case "metrics survive" `Quick test_metrics_survive;
    Alcotest.test_case "format versions" `Quick test_format_versions;
    Alcotest.test_case "run metadata roundtrip" `Quick test_meta_roundtrip;
    Alcotest.test_case "malformed input rejected" `Quick test_malformed;
    Alcotest.test_case "forged routine name refused" `Quick
      test_forged_name_refused;
  ]
