(* The batch hot path: packed {!Event.Batch} containers and traces,
   batch-boundary independence of every registry tool, and the allocation
   budget of batched replay (the reason the path exists). *)

module Event = Aprof_trace.Event
module Batch = Aprof_trace.Event.Batch
module Stream = Aprof_trace.Trace_stream
module Codec = Aprof_trace.Trace_codec
module Tool = Aprof_tools.Tool
module Harness = Aprof_tools.Harness
module Trace = Helpers.Trace

let event = Alcotest.testable Event.pp Event.equal

let sample_events =
  [
    Event.Call { tid = 0; routine = 3 };
    Event.Read { tid = 0; addr = 17 };
    Event.Write { tid = 1; addr = max_int };
    Event.Block { tid = 2; units = 5 };
    Event.User_to_kernel { tid = 0; addr = 4; len = 9 };
    Event.Kernel_to_user { tid = 1; addr = 0; len = 2 };
    Event.Acquire { tid = 3; lock = 1 };
    Event.Release { tid = 3; lock = 1 };
    Event.Alloc { tid = 0; addr = 100; len = 8 };
    Event.Free { tid = 0; addr = 100; len = 8 };
    Event.Thread_start { tid = 4 };
    Event.Thread_exit { tid = 4 };
    Event.Switch_thread { tid = 2 };
    Event.Return { tid = 0 };
  ]

let test_push_get_roundtrip () =
  let b = Batch.create ~capacity:(List.length sample_events) () in
  List.iter (Batch.push b) sample_events;
  Alcotest.(check int) "length" (List.length sample_events) (Batch.length b);
  Alcotest.(check bool) "full" true (Batch.is_full b);
  List.iteri
    (fun i e -> Alcotest.check event "round-trip" e (Batch.get b i))
    sample_events

(* A packed trace replays as batches of raw fields and unpacks back. *)
let test_of_trace_to_trace () =
  let tr = Trace.of_list sample_events in
  let back = Trace.create () in
  Trace.replay tr (Trace.add_batch back);
  Alcotest.(check (list event)) "of_trace/to_trace" sample_events
    (Trace.to_list back)

(* The predicate sees raw fields, every event once and in order. *)
let test_filter_in_place () =
  let b = Batch.create ~capacity:(List.length sample_events) () in
  List.iter (Batch.push b) sample_events;
  let keep tag tid =
    (tag = Batch.tag_read || tag = Batch.tag_write) && tid <> 1
  in
  let seen = ref [] in
  Batch.filter_in_place
    (fun tag tid ->
      seen := (tag, tid) :: !seen;
      keep tag tid)
    b;
  Alcotest.(check (list (pair int int)))
    "every event, in order"
    (List.map (fun e -> (Batch.tag_of_event e, Event.tid e)) sample_events)
    (List.rev !seen);
  Alcotest.(check (list event))
    "reads and writes off thread 1"
    (List.filter
       (fun e -> keep (Batch.tag_of_event e) (Event.tid e))
       sample_events)
    (List.init (Batch.length b) (Batch.get b))

let test_clear_reuse () =
  let b = Batch.create ~capacity:4 () in
  List.iter (Batch.push b) [ List.hd sample_events ];
  Batch.clear b;
  Alcotest.(check int) "cleared" 0 (Batch.length b);
  Alcotest.(check bool) "not full" false (Batch.is_full b);
  (* The container is recycled: a second fill sees no residue. *)
  List.iter (Batch.push b) [ Event.Return { tid = 9 } ];
  Alcotest.check event "fresh content" (Event.Return { tid = 9 }) (Batch.get b 0)

(* --- batch = per-event, for every standard tool ----------------------

   A tool must not care where batch boundaries fall: feeding it one
   event per batch (the per-event granularity) must match a replay of
   the trace's own full batches.  Tiny batches force many boundaries,
   so state carried across batches is exercised too. *)

let equivalence_test (module M : Tool.S) =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:30
       ~name:("batch = per-event: " ^ M.name)
       ~print:Gen_trace.print (Gen_trace.gen ())
       (fun trace ->
         let per_event = M.create () in
         let n =
           Helpers.batches_of_trace ~batch_size:1 trace (M.on_batch per_event)
         in
         if n <> Trace.length trace then
           QCheck2.Test.fail_reportf "replayed %d of %d events" n
             (Trace.length trace);
         let batched = M.create () in
         Trace.replay trace (M.on_batch batched);
         let s1 = M.summary per_event in
         let s2 = M.summary batched in
         if s1 <> s2 then
           QCheck2.Test.fail_reportf "summaries differ:@.%s@.-- vs --@.%s" s1
             s2;
         M.space_words per_event = M.space_words batched))

let equivalence_tests () = List.map equivalence_test Harness.tools

(* --- allocation regression -------------------------------------------

   The batched pipeline exists to keep the per-event heap cost at the
   decode edge: replaying a binary trace into nulgrind must run the
   whole decode + dispatch path without allocating per event, and the
   drms profiler must stay within a small constant (shadow leaves and
   fresh profile accumulators amortize to well under a word per event at
   this trace size). *)

let synth_trace n =
  let tr = Trace.create () in
  let i = ref 0 in
  let tid = ref 0 in
  while Trace.length tr < n do
    tid := (!tid + 1) land 1;
    Trace.push tr (Event.Switch_thread { tid = !tid });
    Trace.push tr (Event.Call { tid = !tid; routine = !i mod 7 });
    for k = 0 to 7 do
      let addr = ((!i * 17) + (k * 3)) land 1023 in
      if k land 1 = 0 then Trace.push tr (Event.Read { tid = !tid; addr })
      else Trace.push tr (Event.Write { tid = !tid; addr })
    done;
    Trace.push tr (Event.Return { tid = !tid });
    incr i
  done;
  tr

let batched_minor_words_per_event ?format_version ?entropy (module M : Tool.S)
    trace =
  let file = Filename.temp_file "aprof_batch_alloc" ".atrc" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let n =
    Out_channel.with_open_bin file (fun oc ->
        let sink = Codec.batch_writer ?format_version ?entropy oc in
        Trace.replay trace sink.Stream.emit_batch;
        sink.Stream.close_batch ();
        Trace.length trace)
  in
  In_channel.with_open_bin file (fun ic ->
      let st = M.create () in
      Gc.full_major ();
      let m0 = Gc.minor_words () in
      let _names, n' = Codec.read ~on_corrupt:`Fail ic (M.on_batch st) in
      let words = Gc.minor_words () -. m0 in
      Alcotest.(check int) "replay count" n n';
      words /. float_of_int n)

let tool_named name =
  List.find (fun (module M : Tool.S) -> M.name = name) Harness.tools

let test_nulgrind_allocation_free () =
  let w = batched_minor_words_per_event (tool_named "nulgrind") (synth_trace 100_000) in
  if w >= 1.0 then
    Alcotest.failf "batched nulgrind replay allocates %.2f minor words/event" w

let test_drms_allocation_budget () =
  let w =
    batched_minor_words_per_event (tool_named "aprof-drms") (synth_trace 100_000)
  in
  if w >= 3.0 then
    Alcotest.failf "batched drms replay allocates %.2f minor words/event" w

(* Version 3 replays repeat regions from a template parsed once per
   region, so decoding must not allocate per region either: a recorded,
   repeat-heavy trace (blackscholes, 325,046 events in 65,536-event
   chunks) through the file path into nulgrind, raw and entropy-coded.
   What remains is per chunk (the Huffman tables) and per file. *)
let test_v3_decode_allocation_free () =
  let spec = Option.get (Aprof_workloads.Registry.find "blackscholes") in
  let trace =
    (Aprof_workloads.Workload.run_spec spec ~threads:4 ~scale:64000 ~seed:1)
      .Aprof_vm.Interp.trace
  in
  List.iter
    (fun entropy ->
      let w =
        batched_minor_words_per_event ~format_version:3 ~entropy
          (tool_named "nulgrind") trace
      in
      if w > 0.02 then
        Alcotest.failf
          "v3 (entropy %b) nulgrind replay allocates %.3f minor words/event"
          entropy w)
    [ false; true ]

let suite =
  [
    Alcotest.test_case "push/get round-trip" `Quick test_push_get_roundtrip;
    Alcotest.test_case "of_trace/to_trace" `Quick test_of_trace_to_trace;
    Alcotest.test_case "filter_in_place" `Quick test_filter_in_place;
    Alcotest.test_case "clear recycles" `Quick test_clear_reuse;
    Alcotest.test_case "nulgrind batched replay allocation-free" `Quick
      test_nulgrind_allocation_free;
    Alcotest.test_case "drms batched replay allocation budget" `Quick
      test_drms_allocation_budget;
    Alcotest.test_case "v3 decode allocation-free on a recorded trace" `Quick
      test_v3_decode_allocation_free;
  ]
  @ equivalence_tests ()
