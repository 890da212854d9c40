(* The ingest daemon, bottom-up: the bounded inbox (backpressure), the
   socket-fed decoder state machine at hostile slice sizes, the sharded
   accumulators' fold/snapshot consistency, and the live server over
   real sockets — N concurrent clients must aggregate to exactly the
   offline merge, and one corrupt stream must never perturb the
   others. *)

module Event = Aprof_trace.Event
module Codec = Aprof_trace.Trace_codec
module Trace_net = Aprof_trace.Trace_net
module Stream = Aprof_trace.Trace_stream
module Inbox = Aprof_serve.Inbox
module Shard_acc = Aprof_serve.Shard_acc
module Fleet = Aprof_serve.Fleet
module Server = Aprof_serve.Server
module Profile = Aprof_core.Profile
module Trace = Aprof_trace.Trace
module Workload = Aprof_workloads.Workload
module Registry = Aprof_workloads.Registry

(* ---------------------------------------------------------------- *)
(* Inbox *)

let test_inbox_round_trip () =
  let ib =
    Inbox.create ~capacity:1000 (Inbox.pool ~buffer_bytes:16 ~max_idle:4)
  in
  let b1 = Inbox.take_buffer ib in
  Bytes.fill b1 0 16 'a';
  Inbox.push ib b1 10;
  Alcotest.(check int) "queued" 10 (Inbox.queued_bytes ib);
  (match Inbox.pop ib with
  | Some (Inbox.Data (b, 10)) ->
    Alcotest.(check string) "contents" (String.make 10 'a')
      (Bytes.sub_string b 0 10);
    Inbox.recycle ib b
  | _ -> Alcotest.fail "expected Data");
  Alcotest.(check int) "drained" 0 (Inbox.queued_bytes ib);
  (* The recycled slice comes back out of take_buffer. *)
  let b2 = Inbox.take_buffer ib in
  Alcotest.(check bool) "recycled buffer reused" true (b1 == b2);
  Inbox.push_eof ib;
  (match Inbox.pop ib with
  | Some Inbox.Eof -> ()
  | _ -> Alcotest.fail "expected Eof");
  Alcotest.(check bool) "empty" true (Inbox.is_empty ib)

let test_inbox_oversized_when_empty () =
  let ib =
    Inbox.create ~capacity:10 (Inbox.pool ~buffer_bytes:64 ~max_idle:4)
  in
  (* Must not block: an empty queue accepts one slice of any size. *)
  Inbox.push ib (Bytes.create 64) 64;
  Alcotest.(check int) "accepted" 64 (Inbox.queued_bytes ib)

let test_inbox_backpressure () =
  let ib =
    Inbox.create ~capacity:100 (Inbox.pool ~buffer_bytes:64 ~max_idle:4)
  in
  Inbox.push ib (Bytes.create 64) 80;
  (* 80 queued; another 50 would exceed capacity, so the producer must
     block until the consumer pops. *)
  let second_done = Atomic.make false in
  let producer =
    Thread.create
      (fun () ->
        Inbox.push ib (Bytes.create 64) 50;
        Atomic.set second_done true)
      ()
  in
  Thread.delay 0.05;
  Alcotest.(check bool) "producer blocked" false (Atomic.get second_done);
  Alcotest.(check int) "only first queued" 80 (Inbox.queued_bytes ib);
  (match Inbox.pop ib with
  | Some (Inbox.Data (_, 80)) -> ()
  | _ -> Alcotest.fail "expected first slice");
  Thread.join producer;
  Alcotest.(check bool) "producer unblocked" true (Atomic.get second_done);
  Alcotest.(check int) "second queued" 50 (Inbox.queued_bytes ib)

let test_inbox_close_neuters () =
  let ib =
    Inbox.create ~capacity:100 (Inbox.pool ~buffer_bytes:64 ~max_idle:4)
  in
  Inbox.push ib (Bytes.create 64) 80;
  (* A producer blocked on capacity must be released by close... *)
  let blocked =
    Thread.create (fun () -> Inbox.push ib (Bytes.create 64) 50) ()
  in
  Thread.delay 0.02;
  Inbox.close ib;
  Thread.join blocked;
  (* ...and everything queued is gone; later pushes are dropped. *)
  Alcotest.(check (option reject)) "queue cleared" None (Inbox.pop ib);
  Inbox.push ib (Bytes.create 64) 10;
  Alcotest.(check (option reject)) "push after close dropped" None
    (Inbox.pop ib)

(* ---------------------------------------------------------------- *)
(* Trace_net: the push driver vs the trace the writer was given *)

let small_run =
  lazy
    (let spec =
       match Registry.find "mysqlslap" with
       | Some s -> s
       | None -> failwith "mysqlslap missing"
     in
     Workload.run_spec
       ~scheduler:(Aprof_vm.Scheduler.Round_robin { slice = 64 })
       spec ~threads:3 ~scale:30 ~seed:11)

let small_run_names () =
  Aprof_trace.Routine_table.name (Lazy.force small_run).Aprof_vm.Interp.routines

let trace_bytes ?entropy ~version () =
  Codec.to_string ~format_version:version ?entropy
    ~routine_name:(small_run_names ())
    (Lazy.force small_run).Aprof_vm.Interp.trace

(* One strided sweep per thread.  Delta coding turns each sweep into a
   v3 repeat region whose expansion runs far past any batch, so strict
   streaming must resume [Trace_packed.fill] mid-repeat; in v2 the
   sweeps fill several chunks near 64 KiB. *)
let sweep_trace =
  lazy
    (let tr = Trace.create () in
     for tid = 0 to 2 do
       Trace.push tr (Event.Call { tid; routine = tid });
       for i = 0 to 7_999 do
         Trace.push tr (Event.Read { tid; addr = 4096 + (8 * i) });
         Trace.push tr (Event.Write { tid; addr = 1_048_576 + (8 * i) })
       done;
       Trace.push tr (Event.Return { tid })
     done;
     tr)

type collected = {
  mutable lines : string list;  (* reversed *)
  mutable defs : (int * string) list;  (* reversed *)
  mutable ends : int;
  mutable ended_after : int list;  (* events delivered at each end, reversed *)
  mutable drops : int;
  mutable max_batch : int;  (* largest delivered batch *)
}

let collector () =
  let c =
    {
      lines = [];
      defs = [];
      ends = 0;
      ended_after = [];
      drops = 0;
      max_batch = 0;
    }
  in
  let cb =
    {
      Trace_net.on_batch =
        (fun b ->
          c.max_batch <- max c.max_batch (Event.Batch.length b);
          Event.Batch.iter_events
            (fun e -> c.lines <- Event.to_line e :: c.lines)
            b);
      on_define = (fun id name -> c.defs <- (id, name) :: c.defs);
      on_trace_end =
        (fun () ->
          c.ends <- c.ends + 1;
          c.ended_after <- List.length c.lines :: c.ended_after);
      on_drop = (fun _ -> c.drops <- c.drops + 1);
    }
  in
  (c, cb)

(* Feed [s] [slice] bytes at a time, each in a buffer of its own with
   room to spare, as inbox slices arrive; returns the slices fed. *)
let feed_in_slices ?(scratch = Trace_net.scratch ()) net s ~slice =
  let n = String.length s in
  let pos = ref 0 and fed = ref 0 in
  while !pos < n do
    let len = min slice (n - !pos) in
    let b = Bytes.create (len + 64) in
    Bytes.blit_string s !pos b 0 len;
    Trace_net.feed net scratch b ~pos:0 ~len;
    pos := !pos + len;
    incr fed
  done;
  !fed

let reference_lines s =
  match Codec.of_string s with
  | Ok (tr, names) -> (List.map Event.to_line (Trace.to_list tr), names)
  | Error e -> Alcotest.failf "reference decode failed: %s" e

(* Every version and slice size, at the default batch size and at 16,
   against the trace the writer was given (every string reader is this
   same machine, so none of them can be the oracle).  The sweep traces
   make strict chunks decode to many batches; no delivered batch may
   exceed the batch size. *)
let test_net_matches_reference () =
  let sweep = Lazy.force sweep_trace in
  let sweep_v2 = Codec.to_string sweep in
  let sweep_v3 = Codec.to_string ~format_version:3 sweep in
  let v3 = trace_bytes ~version:3 () in
  let v3_entropy = trace_bytes ~entropy:true ~version:3 () in
  (* The cases must exercise what they are named for. *)
  Alcotest.(check bool) "sweep v2 spans several 64 KiB chunks" true
    (String.length sweep_v2 > 3 * 64 * 1024);
  Alcotest.(check bool) "sweep v3 carries repeat regions" true
    (String.length sweep_v3 < Trace.length sweep);
  Alcotest.(check bool) "entropy coding applied" true (v3_entropy <> v3);
  let small =
    Test_decoders.writer_input ~routine_name:(small_run_names ())
      (Lazy.force small_run).Aprof_vm.Interp.trace
  in
  let sweep_input =
    Test_decoders.writer_input
      ~routine_name:Aprof_trace.Trace_record.default_routine_name sweep
  in
  let cases =
    [
      ("v1", trace_bytes ~version:1 (), small);
      ("v2", trace_bytes ~version:2 (), small);
      ("v3", v3, small);
      ("v3 entropy", v3_entropy, small);
      ("sweep v2", sweep_v2, sweep_input);
      ("sweep v3", sweep_v3, sweep_input);
    ]
  in
  List.iter
    (fun (name, s, (expected_lines, expected_names)) ->
      List.iter
        (fun batch_size ->
          List.iter
            (fun slice ->
              let label =
                Printf.sprintf "%s batch=%s slice=%d" name
                  (match batch_size with
                  | Some n -> string_of_int n
                  | None -> "default")
                  slice
              in
              let c, cb = collector () in
              let released = ref 0 in
              let net =
                Trace_net.create ~release:(fun _ -> incr released) cb
              in
              let scratch = Trace_net.scratch ?batch_size () in
              let fed = feed_in_slices ~scratch net s ~slice in
              Trace_net.close net;
              Alcotest.(check int)
                (label ^ " every slice released") fed !released;
              Alcotest.(check (list string))
                (label ^ " events") expected_lines (List.rev c.lines);
              Alcotest.(check (list (pair int string)))
                (label ^ " defs") expected_names (List.rev c.defs);
              Alcotest.(check bool)
                (label ^ " batches within the batch size")
                true
                (c.max_batch
                <= Option.value batch_size
                     ~default:Event.Batch.default_capacity);
              Alcotest.(check (list int))
                (label ^ " every event delivered before the trace end")
                [ List.length expected_lines ]
                c.ended_after;
              Alcotest.(check int)
                (label ^ " completed") 1
                (Trace_net.traces_completed net);
              Alcotest.(check int)
                (label ^ " nothing pending") 0
                (Trace_net.pending_bytes net))
            [ 1; 3; 7; String.length s ])
        [ None; Some 16 ])
    cases

let test_net_back_to_back_traces () =
  let s = trace_bytes ~version:2 () in
  let expected_lines, _ = reference_lines s in
  let c, cb = collector () in
  let net = Trace_net.create ~release:ignore cb in
  ignore (feed_in_slices net (s ^ s ^ s) ~slice:13);
  Trace_net.close net;
  Alcotest.(check int) "three traces" 3 (Trace_net.traces_completed net);
  Alcotest.(check int) "three ends" 3 c.ends;
  Alcotest.(check int) "triple events"
    (3 * List.length expected_lines)
    (List.length c.lines)

let test_net_with_footer () =
  (* batch_writer with the shard index exercises the footer path,
     including the strict streamed-frames cross-check.  Two chunk sizes
     give footers of different lengths, odd and even, so 1-byte slices
     end a footer on either side of each assembly attempt. *)
  let result = Lazy.force small_run in
  List.iter
    (fun chunk_bytes ->
      let file = Filename.temp_file "aprof_serve_footer" ".atrc" in
      Out_channel.with_open_bin file (fun oc ->
          let sink =
            Codec.batch_writer ~chunk_bytes ~index:true
              ~routine_name:
                (Aprof_trace.Routine_table.name
                   result.Aprof_vm.Interp.routines)
              oc
          in
          let batches = Helpers.batches_of_trace result.Aprof_vm.Interp.trace in
          let rec loop () =
            match batches () with
            | None -> ()
            | Some b ->
              sink.Stream.emit_batch b;
              loop ()
          in
          loop ();
          sink.Stream.close_batch ());
      let s = In_channel.with_open_bin file In_channel.input_all in
      Sys.remove file;
      let expected_lines, _ = reference_lines s in
      List.iter
        (fun slice ->
          let c, cb = collector () in
          let net = Trace_net.create ~release:ignore cb in
          ignore (feed_in_slices net s ~slice);
          Trace_net.close net;
          Alcotest.(check (list string))
            (Printf.sprintf "footer chunk_bytes=%d slice=%d events" chunk_bytes
               slice)
            expected_lines
            (List.rev c.lines))
        [ 1; 7; String.length s ])
    [ 256; 300 ]

let test_net_truncation_detected () =
  let s = trace_bytes ~version:2 () in
  let c, cb = collector () in
  ignore c;
  let net = Trace_net.create ~release:ignore cb in
  let cut = String.sub s 0 (String.length s - 1) in
  ignore (feed_in_slices net cut ~slice:64);
  (match Trace_net.close net with
  | () -> Alcotest.fail "truncated stream accepted"
  | exception Stream.Decode_error _ -> ());
  Alcotest.(check bool) "poisoned" true (Trace_net.failure net <> None)

let test_net_strict_fails_on_corruption () =
  let s = trace_bytes ~version:2 () in
  let b = Bytes.of_string s in
  (* Offset 40 is well inside the first chunk payload for this trace. *)
  Bytes.set b 40 (Char.chr (Char.code (Bytes.get b 40) lxor 0xff));
  let _, cb = collector () in
  let net = Trace_net.create ~release:ignore cb in
  match feed_in_slices net (Bytes.to_string b) ~slice:64 with
  | _ -> Alcotest.fail "corrupt stream accepted"
  | exception Stream.Decode_error _ ->
    Alcotest.(check bool) "poisoned" true (Trace_net.failure net <> None);
    (* Every later call re-raises. *)
    (match
       Trace_net.feed net (Trace_net.scratch ()) (Bytes.create 1) ~pos:0
         ~len:1
     with
    | () -> Alcotest.fail "poisoned machine accepted bytes"
    | exception Stream.Decode_error _ -> ())

let test_net_salvage_drops_chunk () =
  let s = trace_bytes ~version:2 () in
  let b = Bytes.of_string s in
  Bytes.set b 40 (Char.chr (Char.code (Bytes.get b 40) lxor 0xff));
  let expected_lines, _ = reference_lines s in
  let c, cb = collector () in
  let net = Trace_net.create ~salvage:true ~release:ignore cb in
  ignore (feed_in_slices net (Bytes.to_string b) ~slice:64);
  Trace_net.close net;
  Alcotest.(check int) "one drop" 1 c.drops;
  Alcotest.(check int) "trace still completes" 1
    (Trace_net.traces_completed net);
  (* The dropped chunk's events are gone (for this small trace that can
     be all of them); nothing extra may appear. *)
  Alcotest.(check bool) "no events invented" true
    (List.length c.lines < List.length expected_lines)

(* Append [junk] to the last chunk's payload and re-seal its frame: the
   CRC still verifies, so only the decoder can object, and only after
   streaming every earlier record of the trace.  Records never span
   frames, so the junk lands on a record (or packed group) boundary. *)
let malform_last_chunk s ~junk =
  let pos = ref 5 in
  let byte () =
    let c = Char.code s.[!pos] in
    incr pos;
    c
  in
  let last = ref None in
  let rec walk () =
    let start = !pos in
    let paylen = Aprof_trace.Trace_wire.read_uvarint byte in
    if paylen > 0 then begin
      last := Some (start, !pos + 4, paylen);
      pos := !pos + 4 + paylen;
      walk ()
    end
  in
  walk ();
  match !last with
  | None -> Alcotest.fail "trace has no chunk"
  | Some (start, payload, paylen) ->
    let b = Buffer.create (String.length s + 16) in
    Buffer.add_string b (String.sub s 0 start);
    Aprof_trace.Trace_frame.add_frame b (String.sub s payload paylen ^ junk);
    Buffer.add_string b
      (String.sub s (payload + paylen) (String.length s - payload - paylen));
    Buffer.contents b

(* Tag 31 is no v2 record; opcode 20 is no v3 group. *)
let malformed_v2 () =
  malform_last_chunk (trace_bytes ~version:2 ()) ~junk:"\x1f"

let malformed_v3 () =
  malform_last_chunk (trace_bytes ~version:3 ()) ~junk:"\x14"

let test_net_strict_malformed_payload () =
  List.iter
    (fun (name, s) ->
      (match Codec.of_string s with
      | Ok _ -> Alcotest.failf "%s: reference accepted the malformed chunk" name
      | Error _ -> ());
      let _, cb = collector () in
      let net = Trace_net.create ~release:ignore cb in
      (match feed_in_slices net s ~slice:64 with
      | _ -> Alcotest.failf "%s: malformed chunk accepted" name
      | exception Stream.Decode_error _ -> ());
      Alcotest.(check bool) (name ^ " poisoned") true
        (Trace_net.failure net <> None);
      match Trace_net.close net with
      | () -> Alcotest.failf "%s: poisoned machine closed cleanly" name
      | exception Stream.Decode_error _ -> ())
    [ ("v2", malformed_v2 ()); ("v3", malformed_v3 ()) ]

(* The daemon's per-stream path in one domain: one recorded trace
   pushed stream after stream through one scratch, with read slices and
   profilers from one pool each.  Once the first stream has filled the
   pools, a stream allocates what it must keep — its profile and its
   machine — and no shadow page, batch or slice: the major heap grows
   by under [per_stream_words] per stream (about 800 measured), where
   fresh state cost ~86K words per stream of this trace (the perfbench
   [fleet] one). *)
let per_stream_words = 8_192

let test_net_recycled_ingest_allocation () =
  let spec =
    match Registry.find "bodytrack" with
    | Some s -> s
    | None -> Alcotest.fail "bodytrack missing"
  in
  let run = Workload.run_spec spec ~threads:4 ~scale:600 ~seed:1 in
  let s =
    Codec.to_string ~format_version:3
      ~routine_name:(Aprof_trace.Routine_table.name run.Aprof_vm.Interp.routines)
      run.Aprof_vm.Interp.trace
  in
  let slices = Inbox.pool ~buffer_bytes:(64 * 1024) ~max_idle:8 in
  let reader = Inbox.create slices in
  let profilers =
    Aprof_tools.Ingest_driver.pool (module Aprof_tools.Aprof_adapters.Drms)
  in
  let scratch = Trace_net.scratch () in
  let events = ref 0 in
  let stream () =
    let driver =
      Aprof_tools.Ingest_driver.create ~pool:profilers
        ~on_profile:(fun ~profile:_ ~events:n -> events := !events + n)
        ()
    in
    let net =
      Trace_net.create ~release:(Inbox.recycle reader)
        {
          Trace_net.on_batch = Aprof_tools.Ingest_driver.on_batch driver;
          on_define = (fun _ _ -> ());
          on_trace_end = (fun () -> Aprof_tools.Ingest_driver.trace_end driver);
          on_drop = ignore;
        }
    in
    let pos = ref 0 in
    while !pos < String.length s do
      let b = Inbox.take_buffer reader in
      let len = min (Bytes.length b) (String.length s - !pos) in
      Bytes.blit_string s !pos b 0 len;
      Trace_net.feed net scratch b ~pos:0 ~len;
      pos := !pos + len
    done;
    Trace_net.close net
  in
  stream ();
  let streams = 8 in
  let before = (Gc.quick_stat ()).Gc.major_words in
  for _ = 1 to streams do
    stream ()
  done;
  let per =
    int_of_float ((Gc.quick_stat ()).Gc.major_words -. before) / streams
  in
  Alcotest.(check int) "every stream profiled"
    ((streams + 1) * Trace.length run.Aprof_vm.Interp.trace)
    !events;
  if per >= per_stream_words then
    Alcotest.failf "%d major words per recycled stream (bound %d)" per
      per_stream_words

(* ---------------------------------------------------------------- *)
(* Shard accumulators *)

let synthetic_profile ~routines ~tids =
  let p = Profile.create () in
  List.iter
    (fun r ->
      List.iter
        (fun tid ->
          Profile.record_activation p ~tid ~routine:r ~rms:(r + tid)
            ~drms:r ~cost:(10 * (r + 1)))
        tids)
    routines;
  p

let test_shard_fold_equals_merge () =
  let acc = Shard_acc.create ~shards:4 () in
  let parts =
    List.init 6 (fun i ->
        synthetic_profile
          ~routines:[ i; i + 1; (2 * i) + 3 ]
          ~tids:[ 0; 1; i mod 3 ])
  in
  List.iter (Shard_acc.fold acc) parts;
  Shard_acc.define acc 0 "zero";
  Shard_acc.define acc 1 "one";
  let expected = Profile.create () in
  List.iter (fun p -> Profile.merge_into ~into:expected p) parts;
  let got, names = Shard_acc.snapshot acc in
  Helpers.check_profiles_equal "sharded fold = offline merge" expected got;
  Alcotest.(check (option string)) "names copied" (Some "one")
    (Hashtbl.find_opt names 1);
  Alcotest.(check int) "folds counted" 6 (Shard_acc.folds acc);
  (* Every key sits on the shard its routine hashes to. *)
  for i = 0 to Shard_acc.shard_count acc - 1 do
    List.iter
      (fun (k : Profile.key) ->
        Alcotest.(check int)
          (Printf.sprintf "key routine %d on shard %d" k.Profile.routine i)
          i
          (Shard_acc.shard_of acc k.Profile.routine))
      (Shard_acc.shard_keys acc i)
  done

let test_shard_concurrent_folds () =
  let acc = Shard_acc.create ~shards:4 () in
  let parts =
    List.init 16 (fun i ->
        synthetic_profile ~routines:[ i mod 5; 7; i ] ~tids:[ 0; i mod 4 ])
  in
  let folders =
    List.map (fun p -> Thread.create (fun () -> Shard_acc.fold acc p) ()) parts
  in
  (* Snapshots racing the folds must each be internally consistent;
     the final one must equal the offline merge. *)
  for _ = 1 to 5 do
    ignore (Shard_acc.snapshot acc)
  done;
  List.iter Thread.join folders;
  let expected = Profile.create () in
  List.iter (fun p -> Profile.merge_into ~into:expected p) parts;
  let got, _ = Shard_acc.snapshot acc in
  Helpers.check_profiles_equal "concurrent folds = offline merge" expected got

(* ---------------------------------------------------------------- *)
(* Fleet CSV *)

let test_fleet_render () =
  let profile = synthetic_profile ~routines:[ 0; 1; 2 ] ~tids:[ 0; 1 ] in
  let clients =
    [
      {
        Fleet.name = "unix:#0";
        events = 100;
        traces = 2;
        drops = 0;
        bytes = 400;
        seconds = 2.0;
        error = None;
      };
      {
        Fleet.name = "weird,\"name\"";
        events = 50;
        traces = 1;
        drops = 3;
        bytes = 200;
        seconds = 1.0;
        error = Some "decode error";
      };
    ]
  in
  let doc =
    Fleet.render ~top:2 ~seconds:4.0
      ~name_of:(fun r -> Printf.sprintf "r%d" r)
      ~profile clients
  in
  let lines = String.split_on_char '\n' (String.trim doc) in
  Alcotest.(check string) "header" Fleet.header (List.hd lines);
  (* header + 2 clients + aggregate + 2 routine rows *)
  Alcotest.(check int) "row count" 6 (List.length lines);
  let has_prefix p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  Alcotest.(check int) "client rows" 2
    (List.length (List.filter (has_prefix "client,") lines));
  (match List.find_opt (has_prefix "aggregate,") lines with
  | Some agg ->
    Alcotest.(check bool) "aggregate sums events" true
      (String.length agg > 0
      && String.split_on_char ',' agg |> fun f -> List.nth f 2 = "150")
  | None -> Alcotest.fail "no aggregate row");
  (* The quoted client name survives RFC-4180 escaping. *)
  Alcotest.(check bool) "quoting" true
    (List.exists (has_prefix "client,\"weird,\"\"name\"\"\"") lines);
  (* Routine rows are ranked by total cost: routine 2 costs most. *)
  (match List.filter (has_prefix "routine,") lines with
  | first :: _ ->
    Alcotest.(check bool) "top mover first" true (has_prefix "routine,r2" first)
  | [] -> Alcotest.fail "no routine rows")

(* ---------------------------------------------------------------- *)
(* Live server over real sockets *)

let temp_sock () =
  let p = Filename.temp_file "aprof_serve_test" ".sock" in
  Sys.remove p;
  p

let push_bytes ?flip ~sock ~repeat s =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let b = Bytes.of_string s in
  (match flip with
  | Some off -> Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff))
  | None -> ());
  let n = Bytes.length b in
  for _ = 1 to repeat do
    let rec write o =
      if o < n then
        match Unix.write fd b o (n - o) with
        | 0 -> failwith "closed"
        | k -> write (o + k)
    in
    (try write 0 with Unix.Unix_error _ -> ())
  done;
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  let one = Bytes.create 1 in
  (try while Unix.read fd one 0 1 > 0 do () done with Unix.Unix_error _ -> ());
  Unix.close fd

let expected_merge ~copies =
  let result = Lazy.force small_run in
  let one = Helpers.run_drms result.Aprof_vm.Interp.trace in
  let expected = Profile.create () in
  for _ = 1 to copies do
    Profile.merge_into ~into:expected one
  done;
  expected

let start_test_server ?(salvage = false) sock =
  Server.start
    {
      Server.default_config with
      unix_path = Some sock;
      jobs = 2;
      shards = 4;
      salvage;
    }

let test_server_differential () =
  let s = trace_bytes ~version:2 () in
  let sock = temp_sock () in
  let srv = start_test_server sock in
  (* 6 concurrent clients; two stream the trace twice back-to-back. *)
  let repeats = [ 1; 2; 1; 1; 2; 1 ] in
  let clients =
    List.map
      (fun repeat -> Thread.create (fun () -> push_bytes ~sock ~repeat s) ())
      repeats
  in
  List.iter Thread.join clients;
  let stats = Server.stats srv in
  Alcotest.(check int) "all traces folded"
    (List.fold_left ( + ) 0 repeats)
    stats.Server.s_traces;
  Alcotest.(check int) "no drops" 0 stats.Server.s_drops;
  let got, names = Server.snapshot srv in
  Server.stop srv;
  Helpers.check_profiles_equal "live ingest = offline merge"
    (expected_merge ~copies:(List.fold_left ( + ) 0 repeats))
    got;
  Alcotest.(check bool) "names arrived" true (Hashtbl.length names > 0)

(* Every registry profiler behind the daemon: one connection streams
   the trace twice, so the second trace runs on the profiler the first
   gave back to the pool, reset.  The snapshot must dump exactly as two
   merged copies of the profiler's own profile of the trace. *)
let test_server_every_profiler () =
  let s = trace_bytes ~version:2 () in
  let trace = (Lazy.force small_run).Aprof_vm.Interp.trace in
  List.iter
    (fun (name, (module P : Aprof_tools.Tool.Profiler)) ->
      let expected = Profile.create () in
      for _ = 1 to 2 do
        let p = P.create () in
        Trace.replay trace (P.on_batch p);
        Profile.merge_into ~into:expected (P.finish p)
      done;
      let sock = temp_sock () in
      let srv =
        Server.start
          {
            Server.default_config with
            unix_path = Some sock;
            profiler = (module P);
            jobs = 2;
            shards = 4;
          }
      in
      push_bytes ~sock ~repeat:2 s;
      let stats = Server.stats srv in
      let got, _ = Server.snapshot srv in
      Server.stop srv;
      Alcotest.(check int) (name ^ ": both traces folded") 2
        stats.Server.s_traces;
      Alcotest.(check string)
        (name ^ ": live = direct")
        (Aprof_core.Profile_io.to_string expected)
        (Aprof_core.Profile_io.to_string got))
    Aprof_tools.Harness.profilers

(* Clients of different workloads, formats and write sizes into a
   daemon that reads small slices: a pooled profiler's next trace has
   other threads and another footprint than its last, and frames
   straddle many slices.  The snapshot must still equal the offline
   merge. *)
let test_server_mixed_workloads () =
  let body =
    match Registry.find "bodytrack" with
    | Some spec -> Workload.run_spec spec ~threads:4 ~scale:200 ~seed:3
    | None -> Alcotest.fail "bodytrack missing"
  in
  let small = Lazy.force small_run in
  let sweep = Lazy.force sweep_trace in
  let encode ?entropy ~version (r : Aprof_vm.Interp.result) =
    ( Codec.to_string ~format_version:version ?entropy
        ~routine_name:(Aprof_trace.Routine_table.name r.Aprof_vm.Interp.routines)
        r.Aprof_vm.Interp.trace,
      r.Aprof_vm.Interp.trace )
  in
  (* (bytes, trace, client write size) *)
  let clients =
    [
      (encode ~version:2 small, 1);
      (encode ~version:3 body, 7);
      ((Codec.to_string ~format_version:3 sweep, sweep), 4096);
      (encode ~entropy:true ~version:3 small, 333);
      (encode ~version:1 body, max_int);
      ((Codec.to_string sweep, sweep), 100);
      (encode ~version:3 small, max_int);
      (encode ~version:2 body, 1000);
    ]
  in
  let sock = temp_sock () in
  let srv =
    Server.start
      {
        Server.default_config with
        unix_path = Some sock;
        jobs = 2;
        shards = 4;
        read_bytes = 1000;
        inbox_bytes = 4096;
      }
  in
  let push ((s, _), chunk) () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    let b = Bytes.of_string s in
    let n = Bytes.length b in
    let rec write o =
      if o < n then write (o + Unix.write fd b o (min chunk (n - o)))
    in
    write 0;
    Unix.shutdown fd Unix.SHUTDOWN_SEND;
    let one = Bytes.create 1 in
    (try while Unix.read fd one 0 1 > 0 do () done
     with Unix.Unix_error _ -> ());
    Unix.close fd
  in
  List.iter Thread.join
    (List.map (fun c -> Thread.create (push c) ()) clients);
  let stats = Server.stats srv in
  let got, _ = Server.snapshot srv in
  Server.stop srv;
  Alcotest.(check int) "every trace folded" (List.length clients)
    stats.Server.s_traces;
  let expected = Profile.create () in
  List.iter
    (fun ((_, trace), _) ->
      Profile.merge_into ~into:expected (Helpers.run_drms trace))
    clients;
  Helpers.check_profiles_equal "mixed live ingest = offline merge" expected got

let test_server_corruption_isolation () =
  let s = trace_bytes ~version:2 () in
  let sock = temp_sock () in
  let srv = start_test_server sock in
  let good =
    List.init 4 (fun _ ->
        Thread.create (fun () -> push_bytes ~sock ~repeat:1 s) ())
  in
  let bad = Thread.create (fun () -> push_bytes ~flip:40 ~sock ~repeat:1 s) () in
  List.iter Thread.join (bad :: good);
  let stats = Server.stats srv in
  Alcotest.(check int) "all connections seen" 5 stats.Server.s_conns;
  Alcotest.(check int) "only good traces folded" 4 stats.Server.s_traces;
  let got, _ = Server.snapshot srv in
  Server.stop srv;
  (* The corrupt stream contributed nothing: the aggregate equals the
     merge of the four good streams exactly. *)
  Helpers.check_profiles_equal "corrupt stream isolated"
    (expected_merge ~copies:4) got;
  (* ...and its connection reports a terminal error. *)
  Alcotest.(check int) "one errored client" 1
    (List.length
       (List.filter
          (fun (c : Fleet.client) -> c.Fleet.error <> None)
          (Server.clients srv)))

(* A CRC-valid but malformed last chunk fails its connection only after
   the rest of the trace has streamed into the driver: that partial
   trace must be aborted, never folded. *)
let test_server_malformed_payload_isolation () =
  let s = trace_bytes ~version:3 () in
  let sock = temp_sock () in
  let srv = start_test_server sock in
  let clients =
    List.map
      (fun bytes ->
        Thread.create (fun () -> push_bytes ~sock ~repeat:1 bytes) ())
      [ s; malformed_v2 (); s; malformed_v3 (); s ]
  in
  List.iter Thread.join clients;
  let stats = Server.stats srv in
  Alcotest.(check int) "all connections seen" 5 stats.Server.s_conns;
  Alcotest.(check int) "only good traces folded" 3 stats.Server.s_traces;
  let got, _ = Server.snapshot srv in
  Server.stop srv;
  Helpers.check_profiles_equal "malformed streams isolated"
    (expected_merge ~copies:3) got;
  Alcotest.(check int) "two errored clients" 2
    (List.length
       (List.filter
          (fun (c : Fleet.client) -> c.Fleet.error <> None)
          (Server.clients srv)))

let test_server_salvage_keeps_stream () =
  let s = trace_bytes ~version:2 () in
  let sock = temp_sock () in
  let srv = start_test_server ~salvage:true sock in
  push_bytes ~flip:40 ~sock ~repeat:1 s;
  push_bytes ~sock ~repeat:1 s;
  let stats = Server.stats srv in
  Server.stop srv;
  (* Under salvage the damaged chunk is dropped but both traces fold. *)
  Alcotest.(check int) "both traces folded" 2 stats.Server.s_traces;
  Alcotest.(check int) "chunk dropped" 1 stats.Server.s_drops

(* A stream that decodes cleanly but breaks its profiler (a return
   with no call, early in a chunk longer than a batch) fails its
   connection in the middle of a chunk.  The worker's scratch must come
   out clean: the next connection it serves may not see the rest of
   that chunk. *)
let test_server_profiler_error_isolation () =
  let bad = Trace.create () in
  Trace.push bad (Event.Return { tid = 0 });
  for i = 0 to 3_999 do
    Trace.push bad (Event.Call { tid = 0; routine = 99 });
    Trace.push bad (Event.Read { tid = 0; addr = i });
    Trace.push bad (Event.Return { tid = 0 })
  done;
  let bad = Codec.to_string bad in
  let good = trace_bytes ~version:2 () in
  let sock = temp_sock () in
  let srv =
    Server.start
      { Server.default_config with unix_path = Some sock; jobs = 1; shards = 2 }
  in
  push_bytes ~sock ~repeat:1 bad;
  push_bytes ~sock ~repeat:1 good;
  let stats = Server.stats srv in
  let got, _ = Server.snapshot srv in
  Server.stop srv;
  Alcotest.(check int) "only the good trace folded" 1 stats.Server.s_traces;
  Helpers.check_profiles_equal "the next stream is untouched"
    (expected_merge ~copies:1) got

(* A long-lived daemon must not accumulate per-stream state: once a
   connection finishes, only its STATS / fleet counters may stay
   reachable.  Sequential pushes (each returns once the server closed
   the socket, i.e. after the final fold) make the measurement
   deterministic; the warm-up pushes let the accumulators and name
   table reach their steady size first. *)
let test_server_finished_conns_bounded () =
  let s = trace_bytes ~version:3 () in
  let sock = temp_sock () in
  let srv = start_test_server sock in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let warmup = 4 and pushes = 64 in
  for _ = 1 to warmup do
    push_bytes ~sock ~repeat:1 s
  done;
  let before = live_words () in
  for _ = 1 to pushes do
    push_bytes ~sock ~repeat:1 s
  done;
  let after = live_words () in
  let stats = Server.stats srv in
  Server.stop srv;
  Alcotest.(check int) "every push folded" (warmup + pushes)
    stats.Server.s_traces;
  let per_conn = (after - before) / pushes in
  if per_conn >= Server.finished_conn_words then
    Alcotest.failf "%d live words per finished connection (bound %d)"
      per_conn Server.finished_conn_words

(* --- the control edge and the daemon's bounds --------------------- *)

(* One control exchange: send [payload], close the sending side (so a
   line without a newline still ends), and read until EOF.  [None] when
   nothing arrived within [timeout] seconds — the daemon never
   answered. *)
let control_request ?(timeout = 3.) sock payload =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
      Unix.connect fd (Unix.ADDR_UNIX sock);
      let b = Bytes.of_string payload in
      let rec write o =
        if o < Bytes.length b then
          write (o + Unix.write fd b o (Bytes.length b - o))
      in
      (try
         write 0;
         Unix.shutdown fd Unix.SHUTDOWN_SEND
       with Unix.Unix_error _ -> ());
      let out = Buffer.create 64 in
      let chunk = Bytes.create 256 in
      let rec read () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> Some (Buffer.contents out)
        | n ->
          Buffer.add_subbytes out chunk 0 n;
          read ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
          None
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
          Some (Buffer.contents out)
      in
      read ())

let connect_unix sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Out of descriptors, [accept] fails with EMFILE.  The daemon must back
   off and keep accepting once descriptors free up: [STATS] answers and
   [STOP] stops it.  The process is held at its descriptor limit by
   duplicating one socket until [dup] fails, while a peer connects into
   the backlog; then every duplicate is closed. *)
let test_server_fd_exhaustion () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock = temp_sock () in
  let logged = Atomic.make 0 in
  let srv =
    Server.start
      {
        Server.default_config with
        unix_path = Some sock;
        jobs = 1;
        shards = 1;
        log = (fun _ -> Atomic.incr logged);
      }
  in
  let stopped = ref false in
  Fun.protect
    ~finally:(fun () -> if not !stopped then Server.stop srv)
    (fun () ->
      let queued = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let held = ref [] in
      (try
         while true do
           held := Unix.dup queued :: !held
         done
       with Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) -> ());
      let logs_before = Atomic.get logged in
      Unix.connect queued (Unix.ADDR_UNIX sock);
      Thread.delay 0.5;
      List.iter Unix.close !held;
      (match control_request sock "STATS\n" with
      | Some reply ->
        Alcotest.(check bool)
          ("STATS answers after exhaustion: " ^ reply)
          true
          (starts_with ~prefix:"OK live=" reply)
      | None -> Alcotest.fail "STATS timed out after descriptor exhaustion");
      (match control_request sock "STOP\n" with
      | Some reply -> Alcotest.(check string) "STOP answers" "OK\n" reply
      | None -> Alcotest.fail "STOP timed out after descriptor exhaustion");
      Alcotest.(check bool) "descriptor exhaustion logged" true
        (Atomic.get logged > logs_before);
      Unix.close queued;
      Server.wait srv;
      stopped := true)

(* A peer that never routes (sent nothing) and one stalled mid control
   line must not hold the stop sequence: [Server.stop] returns within
   the bound [server.mli] states. *)
let stop_bound = 15.

let test_server_stop_with_silent_peers () =
  let sock = temp_sock () in
  let srv = start_test_server sock in
  let silent = connect_unix sock in
  let half = connect_unix sock in
  ignore (Unix.write_substring half "PIN" 0 3);
  Thread.delay 0.2;
  let done_ = Atomic.make false in
  let t0 = Unix.gettimeofday () in
  let stopper =
    Thread.create
      (fun () ->
        Server.stop srv;
        Atomic.set done_ true)
      ()
  in
  while (not (Atomic.get done_)) && Unix.gettimeofday () -. t0 < stop_bound do
    Thread.delay 0.02
  done;
  let returned = Atomic.get done_ in
  let elapsed = Unix.gettimeofday () -. t0 in
  (* Release the peers either way, so a stop held by them can finish. *)
  Unix.close silent;
  Unix.close half;
  Thread.join stopper;
  if not returned then
    Alcotest.failf "Server.stop held past %.0f s by silent peers" stop_bound;
  Alcotest.(check bool)
    (Printf.sprintf "stop took %.2f s" elapsed)
    true (elapsed < stop_bound)

(* The control-line fuzzer: random first bytes and lines, case and
   whitespace variants of the verbs, NUL bytes, near-miss [ATRC]
   prefixes and lines past the 256-byte cap.  Every connection gets
   exactly one reply line, no exception escapes a daemon thread, and
   [PING] still answers afterwards. *)
let control_payload_gen =
  let open QCheck2.Gen in
  let bytes_of len = string_size ~gen:char (return len) in
  let nl = oneofl [ ""; "\n"; "\r\n" ] in
  let random_bytes =
    let* len = oneof [ int_range 4 64; int_range 250 300 ] in
    let* body = bytes_of len in
    let* tail = nl in
    return (body ^ tail)
  in
  let verb =
    let* v = oneofl [ "PING"; "STATS"; "SNAPSHOT" ] in
    let* cased =
      map
        (fun flips ->
          String.mapi
            (fun i c ->
              if List.nth flips (i mod List.length flips) then
                Char.lowercase_ascii c
              else c)
            v)
        (list_size (return 8) bool)
    in
    let* pre = oneofl [ ""; " "; "\t"; "  " ] in
    let* post = oneofl [ ""; " "; "\t"; " \r" ] in
    let* tail = nl in
    return (pre ^ cased ^ post ^ tail)
  in
  let with_nul =
    let* v = oneofl [ "PING"; "STATS"; "SNAPSHOT"; "ATRC" ] in
    let* at = int_range 0 (String.length v) in
    let* tail = nl in
    return
      (String.sub v 0 at ^ "\000" ^ String.sub v at (String.length v - at)
     ^ tail)
  in
  let near_atrc =
    let* c = char in
    let c = if c = 'C' then 'c' else c in
    let* rest = string_size ~gen:char (int_range 0 40) in
    let* tail = nl in
    return ("ATR" ^ String.make 1 c ^ rest ^ tail)
  in
  let* p = oneof [ random_bytes; verb; with_nul; near_atrc ] in
  (* A peer must send four bytes to be routed at all, and an [ATRC]
     start routes to ingest, not control. *)
  let p = if String.length p < 4 then p ^ String.make (4 - String.length p) ' ' else p in
  return (if starts_with ~prefix:"ATRC" p then "ATRc" ^ String.sub p 4 (String.length p - 4) else p)

(* The line the daemon sees: up to the first newline, at most 257
   bytes, trimmed. *)
let is_stop payload =
  let cut = min (String.length payload) 257 in
  let line =
    match String.index_opt payload '\n' with
    | Some i when i < cut -> String.sub payload 0 (i + 1)
    | _ -> String.sub payload 0 cut
  in
  String.uppercase_ascii (String.trim line) = "STOP"

let one_reply_line r =
  String.length r > 0
  && r.[String.length r - 1] = '\n'
  && String.index r '\n' = String.length r - 1
  && (r = "PONG\n" || starts_with ~prefix:"OK " r || starts_with ~prefix:"ERR " r)

let test_server_control_fuzz () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock = temp_sock () in
  let srv = start_test_server sock in
  let escaped = Atomic.make 0 in
  let previous = Thread.default_uncaught_exception_handler in
  Thread.set_uncaught_exception_handler (fun e ->
      Atomic.incr escaped;
      previous e);
  Fun.protect
    ~finally:(fun () ->
      Thread.set_uncaught_exception_handler previous;
      Server.stop srv)
    (fun () ->
      let test =
        QCheck2.Test.make ~count:300 ~name:"control-line fuzz"
          ~print:String.escaped control_payload_gen (fun payload ->
            if is_stop payload then true
            else
              match control_request sock payload with
              | Some r when one_reply_line r -> true
              | Some r ->
                QCheck2.Test.fail_reportf "reply %S to %S" r payload
              | None -> QCheck2.Test.fail_reportf "no reply to %S" payload)
      in
      QCheck2.Test.check_exn ~rand:(Random.State.make [| 0xc0ffee |]) test;
      Alcotest.(check (option string)) "PING still answers" (Some "PONG\n")
        (control_request sock "PING\n");
      Alcotest.(check int) "no exception escaped a daemon thread" 0
        (Atomic.get escaped);
      Alcotest.(check (option string)) "STOP, once, at the end" (Some "OK\n")
        (control_request sock "STOP\n"))

let suite =
  [
    Alcotest.test_case "inbox: round trip and recycling" `Quick
      test_inbox_round_trip;
    Alcotest.test_case "inbox: empty queue accepts oversized slice" `Quick
      test_inbox_oversized_when_empty;
    Alcotest.test_case "inbox: push blocks over capacity" `Quick
      test_inbox_backpressure;
    Alcotest.test_case "inbox: close releases and neuters producers" `Quick
      test_inbox_close_neuters;
    Alcotest.test_case "net: every version and slice size = writer input"
      `Quick test_net_matches_reference;
    Alcotest.test_case "net: back-to-back traces on one connection" `Quick
      test_net_back_to_back_traces;
    Alcotest.test_case "net: indexed trace (footer) decodes" `Quick
      test_net_with_footer;
    Alcotest.test_case "net: truncation detected at close" `Quick
      test_net_truncation_detected;
    Alcotest.test_case "net: strict mode poisons on corruption" `Quick
      test_net_strict_fails_on_corruption;
    Alcotest.test_case "net: salvage drops the damaged chunk only" `Quick
      test_net_salvage_drops_chunk;
    Alcotest.test_case "net: CRC-valid malformed payload poisons strict mode"
      `Quick test_net_strict_malformed_payload;
    Alcotest.test_case "net: recycled ingest allocates little per stream"
      `Quick test_net_recycled_ingest_allocation;
    Alcotest.test_case "shards: fold/snapshot = offline merge + partition"
      `Quick test_shard_fold_equals_merge;
    Alcotest.test_case "shards: concurrent folds against snapshots" `Quick
      test_shard_concurrent_folds;
    Alcotest.test_case "fleet: CSV shape, quoting, ranking" `Quick
      test_fleet_render;
    Alcotest.test_case "server: N live clients = offline merge" `Quick
      test_server_differential;
    Alcotest.test_case "server: every profiler = direct profile" `Quick
      test_server_every_profiler;
    Alcotest.test_case "server: mixed workloads and slices = offline merge"
      `Quick test_server_mixed_workloads;
    Alcotest.test_case "server: corrupt stream never perturbs others" `Quick
      test_server_corruption_isolation;
    Alcotest.test_case "server: malformed payload never folds" `Quick
      test_server_malformed_payload_isolation;
    Alcotest.test_case "server: a profiler error leaves the scratch clean"
      `Quick test_server_profiler_error_isolation;
    Alcotest.test_case "server: salvage keeps a damaged stream alive" `Quick
      test_server_salvage_keeps_stream;
    Alcotest.test_case "server: finished connections release their state"
      `Quick test_server_finished_conns_bounded;
    Alcotest.test_case "server: accepting survives descriptor exhaustion"
      `Quick test_server_fd_exhaustion;
    Alcotest.test_case "server: silent peers cannot hold the stop" `Quick
      test_server_stop_with_silent_peers;
    Alcotest.test_case "server: control-line fuzz" `Quick
      test_server_control_fuzz;
  ]
