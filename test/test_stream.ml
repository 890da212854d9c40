(* The stream pipeline: batch-push sanity, the text edge, and the
   load-bearing equivalence — streaming consumption (live VM callbacks,
   binary decode) must produce bit-identical profiles to materialized
   replay, on every registered workload. *)

open Helpers
module Stream = Aprof_trace.Trace_stream
module Codec = Aprof_trace.Trace_codec
module Workload = Aprof_workloads.Workload
module Registry = Aprof_workloads.Registry
module Interp = Aprof_vm.Interp

let ev_list = Alcotest.(list string)
let lines tr = List.map Event.to_line (Trace.to_list tr)

let combinators () =
  let events =
    [
      Event.Switch_thread { tid = 0 };
      Event.Call { tid = 0; routine = 1 };
      Event.Read { tid = 0; addr = 3 };
      Event.Write { tid = 0; addr = 4 };
      Event.Return { tid = 0 };
    ]
  in
  let tr = Trace.of_list events in
  let replayed = Trace.create () in
  Trace.replay tr (Trace.add_batch replayed);
  Alcotest.check ev_list "replay identity" (lines tr) (lines replayed);
  Alcotest.(check int) "length" 5 (Trace.length tr);
  (* A push hands over every batch in order. *)
  let a = Trace.create () in
  Alcotest.(check int) "push count" 5
    (batches_of_trace ~batch_size:2 tr (Trace.add_batch a));
  Alcotest.check ev_list "push delivers in order" (lines tr) (lines a)

let text_channel_source () =
  let tr =
    QCheck2.Gen.generate1 ~rand:(Random.State.make [| 11 |]) (Gen_trace.gen ())
  in
  let file = Filename.temp_file "aprof_test" ".trace" in
  Out_channel.with_open_bin file (fun oc ->
      let sink = Stream.text_sink oc in
      Trace.replay tr sink.Stream.emit_batch;
      sink.Stream.close_batch ());
  let decoded =
    In_channel.with_open_bin file (fun ic -> fst (collect (Stream.read_text ic)))
  in
  Sys.remove file;
  Alcotest.check ev_list "text channel round trip" (lines tr) (lines decoded);
  Out_channel.with_open_bin file (fun oc -> output_string oc "C 1\nnot an event\n");
  let raises =
    In_channel.with_open_bin file (fun ic ->
        match collect (Stream.read_text ic) with
        | _ -> false
        | exception Stream.Decode_error _ -> true)
  in
  Sys.remove file;
  Alcotest.(check bool) "malformed line raises Decode_error" true raises

(* --- streaming = materialized, on every registered workload ----------- *)

let small_scale spec =
  match spec.Workload.name with "vips" -> 30 | "dedup" -> 60 | _ -> 80

let scheduler =
  Aprof_vm.Scheduler.Random_preemptive { min_slice = 4; max_slice = 48 }

let streaming_equals_materialized spec () =
  let threads = 3 and scale = small_scale spec and seed = 13 in
  (* Materialized: record the trace, then replay it into the profiler. *)
  let result = Workload.run_spec ~scheduler spec ~threads ~scale ~seed in
  let p_mat = run_drms result.Interp.trace in
  (* Live: profile while the VM executes, no trace anywhere. *)
  let live = Aprof_core.Drms_profiler.create () in
  let live_result =
    Workload.run_spec_batched ~scheduler spec ~threads ~scale ~seed
      ~tool:(fun _routines -> Aprof_core.Drms_profiler.on_batch live)
  in
  Alcotest.(check int)
    "same event count" (Trace.length result.Interp.trace)
    live_result.Interp.events_emitted;
  Alcotest.(check int)
    "streamed run materializes nothing" 0
    (Trace.length live_result.Interp.trace);
  check_profiles_equal "live streaming = materialized" p_mat
    (Aprof_core.Drms_profiler.finish live);
  (* Through the binary codec: encode, stream-decode, profile. *)
  let routine_name =
    Aprof_trace.Routine_table.name result.Interp.routines
  in
  let encoded = Codec.to_string ~routine_name result.Interp.trace in
  match Codec.of_string encoded with
  | Error e -> Alcotest.failf "decode: %s" e
  | Ok (decoded, _) ->
    let p_decoded = run_drms decoded in
    check_profiles_equal "binary round trip preserves profile" p_mat p_decoded

let suite =
  Alcotest.test_case "stream combinators" `Quick combinators
  :: Alcotest.test_case "text channel source" `Quick text_channel_source
  :: List.map
       (fun spec ->
         Alcotest.test_case
           (spec.Workload.name ^ ": streaming = materialized")
           `Slow
           (streaming_equals_materialized spec))
       Registry.all
