(* Shared helpers for the test suites. *)

module Event = Aprof_trace.Event
module Vec = Aprof_util.Vec
module Profile = Aprof_core.Profile

(* The library's packed trace plus an event view for tests, which
   unpacks at the edge through [replay] and [iter_raw]. *)
module Trace = struct
  include Aprof_trace.Trace

  (* [get t i] unpacks the [i]-th event.
     @raise Invalid_argument when [i] is out of bounds. *)
  let get t i =
    let b = Event.Batch.create ~capacity:1 () in
    iter_raw t ~pos:i ~len:1 (fun tag tid arg len ->
        Event.Batch.unsafe_push b ~tag ~tid ~arg ~len);
    Event.Batch.get b 0

  let iter f t = replay t (Event.Batch.iter_events f)

  let of_list events =
    let t = create () in
    List.iter (push t) events;
    t

  let to_list t =
    let acc = ref [] in
    iter (fun ev -> acc := ev :: !acc) t;
    List.rev !acc

  (* [well_formed t] checks structural sanity — balanced call/return per
     thread, non-negative addresses, positive lengths, no events from a
     thread after its [Thread_exit] — and returns human-readable
     violations (empty when the trace is well formed). *)
  let well_formed t =
    let errors = ref [] in
    let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
    let depth : (int, int ref) Hashtbl.t = Hashtbl.create 8 in
    let exited : (int, unit) Hashtbl.t = Hashtbl.create 8 in
    let depth_of tid =
      match Hashtbl.find_opt depth tid with
      | Some d -> d
      | None ->
        let d = ref 0 in
        Hashtbl.add depth tid d;
        d
    in
    let pos = ref (-1) in
    iter
      (fun ev ->
        incr pos;
        let pos = !pos in
        let tid = Event.tid ev in
        if Hashtbl.mem exited tid && not (Event.is_switch ev) then
          err "event %d: thread %d acts after exit" pos tid;
        match ev with
        | Event.Call _ -> incr (depth_of tid)
        | Event.Return _ ->
          let d = depth_of tid in
          if !d <= 0 then
            err "event %d: return with empty call stack in thread %d" pos tid
          else decr d
        | Event.Read { addr; _ } | Event.Write { addr; _ } ->
          if addr < 0 then err "event %d: negative address" pos
        | Event.User_to_kernel { addr; len; _ }
        | Event.Kernel_to_user { addr; len; _ }
        | Event.Alloc { addr; len; _ }
        | Event.Free { addr; len; _ } ->
          if addr < 0 then err "event %d: negative address" pos;
          if len <= 0 then err "event %d: non-positive length" pos
        | Event.Block { units; _ } ->
          if units < 0 then err "event %d: negative block units" pos
        | Event.Thread_exit _ -> Hashtbl.replace exited tid ()
        | Event.Thread_start _ | Event.Acquire _ | Event.Release _
        | Event.Switch_thread _ ->
          ())
      t;
    Hashtbl.iter
      (fun tid d -> if !d <> 0 then err "thread %d: %d unbalanced calls" tid !d)
      depth;
    List.rev !errors

  (* Per-constructor counts and simple shape statistics. *)
  type stats = {
    events : int;
    calls : int;
    reads : int;
    writes : int;
    blocks : int;
    block_units : int;
    user_to_kernel : int;
    kernel_to_user : int;
    switches : int;
    threads : int;
    max_call_depth : int;
    distinct_addresses : int;
  }

  let stats t =
    let calls = ref 0
    and reads = ref 0
    and writes = ref 0
    and blocks = ref 0
    and block_units = ref 0
    and u2k = ref 0
    and k2u = ref 0
    and switches = ref 0 in
    let threads = Hashtbl.create 8 in
    let addresses = Hashtbl.create 1024 in
    let depth = Hashtbl.create 8 in
    let max_depth = ref 0 in
    let touch_addr a =
      if not (Hashtbl.mem addresses a) then Hashtbl.add addresses a ()
    in
    iter
      (fun ev ->
        if not (Event.is_switch ev) then
          Hashtbl.replace threads (Event.tid ev) ();
        match ev with
        | Event.Call { tid; _ } ->
          incr calls;
          let d = 1 + Option.value ~default:0 (Hashtbl.find_opt depth tid) in
          Hashtbl.replace depth tid d;
          if d > !max_depth then max_depth := d
        | Event.Return { tid } ->
          let d = Option.value ~default:0 (Hashtbl.find_opt depth tid) in
          Hashtbl.replace depth tid (d - 1)
        | Event.Read { addr; _ } ->
          incr reads;
          touch_addr addr
        | Event.Write { addr; _ } ->
          incr writes;
          touch_addr addr
        | Event.Block { units; _ } ->
          incr blocks;
          block_units := !block_units + units
        | Event.User_to_kernel { addr; len; _ } ->
          incr u2k;
          for a = addr to addr + len - 1 do
            touch_addr a
          done
        | Event.Kernel_to_user { addr; len; _ } ->
          incr k2u;
          for a = addr to addr + len - 1 do
            touch_addr a
          done
        | Event.Switch_thread _ -> incr switches
        | Event.Acquire _ | Event.Release _ | Event.Alloc _ | Event.Free _
        | Event.Thread_start _ | Event.Thread_exit _ ->
          ())
      t;
    {
      events = length t;
      calls = !calls;
      reads = !reads;
      writes = !writes;
      blocks = !blocks;
      block_units = !block_units;
      user_to_kernel = !u2k;
      kernel_to_user = !k2u;
      switches = !switches;
      threads = Hashtbl.length threads;
      max_call_depth = !max_depth;
      distinct_addresses = Hashtbl.length addresses;
    }
end

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

(* [batches_of_trace ~batch_size tr f] re-chunks [tr] into a recycled
   batch of [batch_size] events and hands each to [f], so a test can put
   batch boundaries anywhere.  Returns the events handed over. *)
let batches_of_trace ?(batch_size = Event.Batch.default_capacity) tr f =
  let b = Event.Batch.create ~capacity:batch_size () in
  let rec go pos =
    let len = min batch_size (Trace.length tr - pos) in
    if len <= 0 then pos
    else begin
      Event.Batch.clear b;
      Trace.iter_raw tr ~pos ~len (fun tag tid arg len ->
          Event.Batch.unsafe_push b ~tag ~tid ~arg ~len);
      f b;
      go (pos + len)
    end
  in
  go 0

(* [feed on_batch events] hands [events] to a batch entry point as one
   packed batch. *)
let feed on_batch events =
  let b = Event.Batch.create ~capacity:(max 1 (List.length events)) () in
  List.iter (Event.Batch.push b) events;
  on_batch b

(* [write_batches ~batch_size tr sink] writes [tr] into [sink] in
   batches of [batch_size] events, then closes it. *)
let write_batches ?batch_size tr (sink : Aprof_trace.Trace_stream.batch_sink) =
  ignore (batches_of_trace ?batch_size tr sink.emit_batch);
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

(* [collect read] runs the push reader [read] into a fresh trace and
   returns the trace with what [read] returned. *)
let collect read =
  let tr = Trace.create () in
  let r = read (Trace.add_batch tr) in
  (tr, r)

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
