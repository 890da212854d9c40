(* Shared helpers for the test suites. *)

module Event = Aprof_trace.Event
module Trace = Aprof_trace.Trace
module Vec = Aprof_util.Vec
module Profile = Aprof_core.Profile

let run_drms ?overflow_limit ?mode trace =
  let p = Aprof_core.Drms_profiler.create ?overflow_limit ?mode () in
  Trace.replay trace (Aprof_core.Drms_profiler.on_batch p);
  Aprof_core.Drms_profiler.finish p

let run_naive trace =
  let p = Aprof_core.Naive_drms.create () in
  Trace.replay trace (Aprof_core.Naive_drms.on_batch p);
  Aprof_core.Naive_drms.finish p

(* Plain aprof: the drms profiler with induced first-reads off. *)
let run_rms trace = run_drms ~mode:`None trace

(* [batches_of_trace ~batch_size tr] re-chunks [tr] into a recycled
   batch of [batch_size] events per pull, so a test can put batch
   boundaries anywhere; [trace_of_batches] materializes a source. *)
let batches_of_trace ?(batch_size = Event.Batch.default_capacity) tr :
    Aprof_trace.Trace_stream.batch_source =
  let b = Event.Batch.create ~capacity:batch_size () in
  let pos = ref 0 in
  fun () ->
    let len = min batch_size (Trace.length tr - !pos) in
    if len <= 0 then None
    else begin
      Event.Batch.clear b;
      Trace.iter_raw tr ~pos:!pos ~len (fun tag tid arg len ->
          Event.Batch.unsafe_push b ~tag ~tid ~arg ~len);
      pos := !pos + len;
      Some b
    end

(* [feed on_batch events] hands [events] to a batch entry point as one
   packed batch. *)
let feed on_batch events =
  let b = Event.Batch.create ~capacity:(max 1 (List.length events)) () in
  List.iter (Event.Batch.push b) events;
  on_batch b

(* [write_batches src sink] drains [src] into [sink], then closes it. *)
let write_batches src (sink : Aprof_trace.Trace_stream.batch_sink) =
  ignore (Aprof_trace.Trace_stream.drain src sink.emit_batch);
  sink.close_batch ()

(* [with_shards ~chunk_bytes trace f] records [trace] through
   {!Aprof_trace.Trace_codec.batch_writer} into a temporary indexed file
   of [chunk_bytes]-byte chunks in [format_version] (default 2), hands
   [f] the file's {!Aprof_tools.Tool.Shards.t}, and removes the file
   afterwards: the sharded replay engine reads its chunks from a file. *)
let with_shards ?(format_version = 2) ~chunk_bytes trace f =
  let path = Filename.temp_file "aprof_shards" ".atrc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          let sink =
            Aprof_trace.Trace_codec.batch_writer ~chunk_bytes ~format_version
              oc
          in
          Trace.replay trace sink.emit_batch;
          sink.close_batch ());
      match Aprof_tools.Tool.Shards.of_file path with
      | Some shards -> f shards
      | None -> Alcotest.fail "recorded trace has no shard index")

let trace_of_batches src =
  let tr = Trace.create () in
  ignore (Aprof_trace.Trace_stream.drain src (Trace.add_batch tr));
  tr

(* Sum of input sizes over all activations of [routine] in [profile]:
   with one activation per distinct input this pins exact values. *)
let drms_values profile ~tid ~routine =
  match Profile.data profile { Profile.tid; routine } with
  | None -> []
  | Some d ->
    List.concat_map
      (fun (p : Profile.point) -> List.init p.Profile.calls (fun _ -> p.Profile.input))
      d.Profile.drms_points

let rms_values profile ~tid ~routine =
  match Profile.data profile { Profile.tid; routine } with
  | None -> []
  | Some d ->
    List.concat_map
      (fun (p : Profile.point) -> List.init p.Profile.calls (fun _ -> p.Profile.input))
      d.Profile.rms_points

let routine_id table name =
  match Aprof_trace.Routine_table.find table name with
  | Some id -> id
  | None -> Alcotest.failf "routine %s not interned" name

(* Activation multiset (rms, drms) per (tid, routine), for differential
   tests: profiles must agree exactly.  Costs are compared separately
   because the two implementations share Cost_model. *)
let signature profile =
  Profile.keys profile
  |> List.filter_map (fun k ->
         match Profile.data profile k with
         | None -> None
         | Some d ->
           let drms =
             List.map
               (fun (p : Profile.point) -> (p.Profile.input, p.Profile.calls, p.Profile.max_cost))
               d.Profile.drms_points
           in
           let rms =
             List.map
               (fun (p : Profile.point) -> (p.Profile.input, p.Profile.calls, p.Profile.max_cost))
               d.Profile.rms_points
           in
           Some ((k.Profile.tid, k.Profile.routine), (drms, rms, d.Profile.activations)))
  |> List.sort compare

let ops_signature profile =
  Profile.keys profile
  |> List.filter_map (fun k ->
         match Profile.data profile k with
         | None -> None
         | Some d ->
           Some
             ( (k.Profile.tid, k.Profile.routine),
               ( d.Profile.first_read_ops,
                 d.Profile.induced_thread_ops,
                 d.Profile.induced_external_ops ) ))
  |> List.sort compare

let check_profiles_equal msg p1 p2 =
  Alcotest.(check (list (pair (pair int int) (triple (list (triple int int int)) (list (triple int int int)) int))))
    msg (signature p1) (signature p2)

let check_ops_equal msg p1 p2 =
  Alcotest.(check (list (pair (pair int int) (triple int int int))))
    msg (ops_signature p1) (ops_signature p2)

let run_workload ?scheduler ?(seed = 7) w =
  Aprof_workloads.Workload.run ?scheduler w ~seed
