(* Trace layer: event serialization, the well-formedness checker, the
   text round trip, and the routine table. *)

module Event = Aprof_trace.Event
module Trace = Helpers.Trace
module Routine_table = Aprof_trace.Routine_table

let gen_event =
  let open QCheck2.Gen in
  let tid = int_range 0 3 in
  let addr = int_range 0 1000 in
  let len = int_range 1 16 in
  oneof
    [
      map2 (fun tid routine -> Event.Call { tid; routine }) tid (int_range 0 5);
      map (fun tid -> Event.Return { tid }) tid;
      map2 (fun tid addr -> Event.Read { tid; addr }) tid addr;
      map2 (fun tid addr -> Event.Write { tid; addr }) tid addr;
      map2 (fun tid units -> Event.Block { tid; units }) tid (int_range 0 50);
      map3 (fun tid addr len -> Event.User_to_kernel { tid; addr; len }) tid addr len;
      map3 (fun tid addr len -> Event.Kernel_to_user { tid; addr; len }) tid addr len;
      map2 (fun tid lock -> Event.Acquire { tid; lock }) tid (int_range 0 9);
      map2 (fun tid lock -> Event.Release { tid; lock }) tid (int_range 0 9);
      map3 (fun tid addr len -> Event.Alloc { tid; addr; len }) tid addr len;
      map3 (fun tid addr len -> Event.Free { tid; addr; len }) tid addr len;
      map (fun tid -> Event.Thread_start { tid }) tid;
      map (fun tid -> Event.Thread_exit { tid }) tid;
      map (fun tid -> Event.Switch_thread { tid }) tid;
    ]

let line_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"event line roundtrip" ~count:500
       ~print:Event.to_string gen_event (fun e ->
         match Event.of_line (Event.to_line e) with
         | Ok e' -> Event.equal e e'
         | Error _ -> false))

let test_of_line_errors () =
  List.iter
    (fun line ->
      match Event.of_line line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse failure on %S" line)
    [ ""; "Z 1"; "C 1"; "C x 2"; "L 1 2 3"; "K 1 2" ]

let test_well_formed_negatives () =
  let t = Trace.create () in
  Trace.push t (Event.Return { tid = 0 });
  Alcotest.(check bool) "return without call flagged" true
    (Trace.well_formed t <> []);
  let t2 = Trace.create () in
  Trace.push t2 (Event.Thread_exit { tid = 0 });
  Trace.push t2 (Event.Read { tid = 0; addr = 1 });
  Alcotest.(check bool) "act after exit flagged" true (Trace.well_formed t2 <> [])

(* The text format, through the sink [aprof record --format text]
   writes with and the reader [aprof replay] reads with. *)
let save_load_roundtrip trace =
  let module Stream = Aprof_trace.Trace_stream in
  let tmp = Filename.temp_file "aprof" ".trace" in
  Out_channel.with_open_text tmp (fun oc ->
      let sink = Stream.text_sink oc in
      Trace.replay trace sink.Stream.emit_batch;
      sink.Stream.close_batch ());
  let back = Trace.create () in
  In_channel.with_open_text tmp (fun ic ->
      ignore (Stream.read_text ic (Trace.add_batch back)));
  Sys.remove tmp;
  Trace.to_list back = Trace.to_list trace

let save_load =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"save/load roundtrip" ~count:50
       ~print:Gen_trace.print (Gen_trace.gen ()) save_load_roundtrip)

let test_stats () =
  let trace, _ = Aprof_workloads.Micro.fig1a () in
  let s = Trace.stats trace in
  Alcotest.(check int) "calls" 2 s.Trace.calls;
  Alcotest.(check int) "reads" 2 s.Trace.reads;
  Alcotest.(check int) "writes" 1 s.Trace.writes;
  Alcotest.(check int) "threads" 2 s.Trace.threads;
  Alcotest.(check int) "distinct addresses" 1 s.Trace.distinct_addresses;
  Alcotest.(check int) "switches" 3 s.Trace.switches

let test_routine_table () =
  let tbl = Routine_table.create () in
  let a = Routine_table.intern tbl "alpha" in
  let b = Routine_table.intern tbl "beta" in
  Alcotest.(check int) "dense ids" 0 a;
  Alcotest.(check int) "dense ids 2" 1 b;
  Alcotest.(check int) "intern is idempotent" a (Routine_table.intern tbl "alpha");
  Alcotest.(check string) "name" "beta" (Routine_table.name tbl b);
  Alcotest.(check (option int)) "find" (Some 0) (Routine_table.find tbl "alpha");
  Alcotest.(check (option int)) "find missing" None (Routine_table.find tbl "x");
  Alcotest.(check int) "size" 2 (Routine_table.size tbl);
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Routine_table.name: unknown id 5") (fun () ->
      ignore (Routine_table.name tbl 5))

let suite =
  [
    line_roundtrip;
    Alcotest.test_case "of_line errors" `Quick test_of_line_errors;
    Alcotest.test_case "well-formed negatives" `Quick test_well_formed_negatives;
    save_load;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "routine table" `Quick test_routine_table;
  ]
