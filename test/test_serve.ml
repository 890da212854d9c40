(* The ingest daemon, bottom-up: the socket-fed decoder state machine
   at hostile slice sizes, the sharded accumulators' fold/snapshot
   consistency, and the live server over real sockets — N concurrent
   clients must aggregate to exactly the offline merge, one corrupt
   stream must never perturb the others, and each connection's
   buffering, worker time and descriptors stay bounded. *)

module Event = Aprof_trace.Event
module Codec = Aprof_trace.Trace_codec
module Trace_net = Aprof_trace.Trace_net
module Stream = Aprof_trace.Trace_stream
module Shard_acc = Aprof_serve.Shard_acc
module Fleet = Aprof_serve.Fleet
module Server = Aprof_serve.Server
module Profile = Aprof_core.Profile
module Trace = Helpers.Trace
module Workload = Aprof_workloads.Workload
module Registry = Aprof_workloads.Registry

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
   room to spare, as read slices arrive; returns the slices fed. *)
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
          Helpers.write_batches result.Aprof_vm.Interp.trace sink);
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
    ignore
      (Aprof_trace.Trace_frame.add_frame b
         (String.sub s payload paylen ^ junk));
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
  let slices = Aprof_util.Pool.create ~max_idle:8 in
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
      Trace_net.create ~release:(Aprof_util.Pool.give slices)
        {
          Trace_net.on_batch = Aprof_tools.Ingest_driver.on_batch driver;
          on_define = (fun _ _ -> ());
          on_trace_end = (fun () -> Aprof_tools.Ingest_driver.trace_end driver);
          on_drop = ignore;
        }
    in
    let pos = ref 0 in
    while !pos < String.length s do
      let b =
        match Aprof_util.Pool.take slices with
        | Some b -> b
        | None -> Bytes.create (64 * 1024)
      in
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
  let acc = Shard_acc.create () in
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
  Helpers.check_profiles_equal "fold = offline merge" expected got;
  Alcotest.(check (option string)) "names copied" (Some "one")
    (Hashtbl.find_opt names 1);
  Alcotest.(check int) "folds counted" 6 (Shard_acc.folds acc);
  (* A snapshot is a copy: later folds and definitions leave it alone. *)
  Shard_acc.fold acc (synthetic_profile ~routines:[ 0 ] ~tids:[ 0 ]);
  Shard_acc.define acc 1 "uno";
  Helpers.check_profiles_equal "snapshot unchanged by a later fold" expected
    got;
  Alcotest.(check (option string)) "names unchanged" (Some "one")
    (Hashtbl.find_opt names 1)

let test_shard_concurrent_folds () =
  let acc = Shard_acc.create () in
  let parts =
    List.init 16 (fun i ->
        synthetic_profile ~routines:[ i mod 5; 7; i ] ~tids:[ 0; i mod 4 ])
  in
  let folders =
    List.map (fun p -> Thread.create (fun () -> Shard_acc.fold acc p) ()) parts
  in
  (* Snapshots racing the folds see whole traces only (each part
     records 6 activations); the final one must equal the offline
     merge. *)
  for _ = 1 to 5 do
    let snap, _ = Shard_acc.snapshot acc in
    Alcotest.(check int)
      "whole traces only" 0
      (Profile.total_activations snap mod 6)
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

(* [written], when given, counts the bytes the peer has taken. *)
let push_bytes ?flip ?(written = Atomic.make 0) ~sock ~repeat s =
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
        | k ->
          ignore (Atomic.fetch_and_add written k);
          write (o + k)
    in
    (try write 0 with Unix.Unix_error _ -> ())
  done;
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  let one = Bytes.create 1 in
  (try while Unix.read fd one 0 1 > 0 do () done with Unix.Unix_error _ -> ());
  Unix.close fd

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

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
      { Server.default_config with unix_path = Some sock; jobs = 1 }
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

(* --- one lock: buffering, fairness, descriptors ------------------ *)

(* A drms profiler whose [on_batch] waits while the gate is shut, so a
   worker that enters it stalls until the test opens the gate; opened
   with [`Fail], it raises instead, failing its connection. *)
module Gate = struct
  let m = Mutex.create ()
  let changed = Condition.create ()
  let state : [ `Open | `Shut | `Fail ] ref = ref `Open
  let entered = Atomic.make 0

  let set s =
    Mutex.lock m;
    state := s;
    Condition.broadcast changed;
    Mutex.unlock m

  let pass () =
    Atomic.incr entered;
    Mutex.lock m;
    while !state = `Shut do
      Condition.wait changed m
    done;
    let s = !state in
    Mutex.unlock m;
    if s = `Fail then failwith "gate: failed on purpose"
end

module Gated = struct
  include Aprof_tools.Aprof_adapters.Drms

  let name = "gated"

  let on_batch st b =
    Gate.pass ();
    on_batch st b
end

(* Wait until [written] has not moved for 0.3 s: the client is blocked,
   so the daemon stopped reading. *)
let wait_stalled written =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec loop last =
    Thread.delay 0.3;
    let now = Atomic.get written in
    if now <> last && Unix.gettimeofday () < deadline then loop now
  in
  loop (Atomic.get written)

let start_gated ?(read_bytes = Server.default_config.Server.read_bytes) sock =
  Server.start
    {
      Server.default_config with
      unix_path = Some sock;
      jobs = 1;
      profiler = (module Gated);
      read_bytes;
    }

(* What a connection may buffer while its worker is stalled: its queue
   (256 KiB by default), the slice its reader fills and the slices the
   decoder holds for an unfinished item — well under this bound, which
   is an eighth of the 16 MB the client streams. *)
let stalled_buffer_words = 256 * 1024

let test_server_stalled_worker_bounds_buffer () =
  let s = trace_bytes ~version:2 () in
  let repeat = (16 * 1024 * 1024 / String.length s) + 1 in
  let sock = temp_sock () in
  Gate.set `Open;
  let srv = start_gated sock in
  (* Warm up: the worker's scratch and one pooled profiler exist. *)
  push_bytes ~sock ~repeat:1 s;
  Gate.set `Shut;
  let before = live_words () in
  let written = Atomic.make 0 in
  let client = Thread.create (fun () -> push_bytes ~written ~sock ~repeat s) () in
  wait_stalled written;
  let grown = live_words () - before in
  let stalled = Atomic.get written in
  Gate.set `Open;
  Thread.join client;
  let stats = Server.stats srv in
  let got, _ = Server.snapshot srv in
  Server.stop srv;
  if grown >= stalled_buffer_words then
    Alcotest.failf "the heap grew by %d words while the worker stalled (bound %d)"
      grown stalled_buffer_words;
  Alcotest.(check bool)
    (Printf.sprintf "the client stalled (%d of %d bytes written)" stalled
       (repeat * String.length s))
    true
    (stalled < repeat * String.length s);
  Alcotest.(check int) "every trace folded" (repeat + 1) stats.Server.s_traces;
  Helpers.check_profiles_equal "after the stall = offline merge"
    (expected_merge ~copies:(repeat + 1))
    got

(* The empty queue takes a slice of any size, so a bound below the read
   size cannot stall a reader. *)
let test_server_inbox_below_read_size () =
  let s = trace_bytes ~version:3 () in
  let sock = temp_sock () in
  let srv =
    Server.start
      {
        Server.default_config with
        unix_path = Some sock;
        jobs = 2;
        read_bytes = 4096;
        inbox_bytes = 100;
      }
  in
  List.iter Thread.join
    (List.init 3 (fun _ ->
         Thread.create (fun () -> push_bytes ~sock ~repeat:2 s) ()));
  let stats = Server.stats srv in
  let got, _ = Server.snapshot srv in
  Server.stop srv;
  Alcotest.(check int) "every trace folded" 6 stats.Server.s_traces;
  Helpers.check_profiles_equal "small inbox = offline merge"
    (expected_merge ~copies:6) got

let fd_dir = "/proc/self/fd"
let open_fds () = Array.length (Sys.readdir fd_dir)

(* Wait until the process holds [n] descriptors; [false] after 5 s. *)
let fds_settle n =
  let deadline = Unix.gettimeofday () +. 5. in
  let rec loop () =
    open_fds () = n || (Unix.gettimeofday () < deadline && (Thread.delay 0.02; loop ()))
  in
  loop ()

(* A connection failed while its queue is full and its reader waits for
   room: the failure gives the queued slices back and wakes the reader,
   which lets go of the descriptor, so it closes.  Read slices of 4 MiB
   leave the daemon's slice pool room for one idle slice, so connection
   after connection the heap grows by no more than a finished
   connection's counters, where one that kept its queued slices would
   keep 512K words or more. *)
let test_server_finished_conn_gives_back_slices () =
  if not (Sys.file_exists fd_dir) then Alcotest.skip ();
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let s = trace_bytes ~version:2 () in
  let repeat = (4 * 1024 * 1024 / String.length s) + 1 in
  let sock = temp_sock () in
  Gate.set `Open;
  let srv = start_gated ~read_bytes:(4 * 1024 * 1024) sock in
  let fds = open_fds () in
  let fail_one () =
    Gate.set `Shut;
    let entered = Atomic.get Gate.entered in
    let written = Atomic.make 0 in
    let client = Thread.create (fun () -> push_bytes ~written ~sock ~repeat s) () in
    wait_stalled written;
    Alcotest.(check bool) "the worker stalled" true
      (Atomic.get Gate.entered > entered);
    Gate.set `Fail;
    Thread.join client;
    Alcotest.(check bool) "the reader let go: its descriptor closed" true
      (fds_settle fds)
  in
  let warmup = 2 and cycles = 6 in
  for _ = 1 to warmup do
    fail_one ()
  done;
  let before = live_words () in
  for _ = 1 to cycles do
    fail_one ()
  done;
  let per_conn = (live_words () - before) / cycles in
  Gate.set `Open;
  let stats = Server.stats srv in
  Server.stop srv;
  Alcotest.(check int) "no trace folded" 0 stats.Server.s_traces;
  Alcotest.(check int) "every connection finished" 0 stats.Server.s_live;
  if per_conn >= Server.finished_conn_words then
    Alcotest.failf "%d live words per failed full connection (bound %d)"
      per_conn Server.finished_conn_words

(* With one worker, a stream that keeps its queue full cannot hold the
   worker: a 1 KB stream started 0.2 s into a 54 MB one (blackscholes,
   v2, 150 copies) is decoded between the big one's slices, and its
   push returns first. *)
let test_server_long_stream_cannot_hold_worker () =
  let blackscholes scale =
    match Registry.find "blackscholes" with
    | Some spec ->
      let r = Workload.run_spec spec ~threads:4 ~scale ~seed:1 in
      Codec.to_string ~format_version:2
        ~routine_name:(Aprof_trace.Routine_table.name r.Aprof_vm.Interp.routines)
        r.Aprof_vm.Interp.trace
    | None -> Alcotest.fail "blackscholes missing"
  in
  let big = blackscholes 20_000 and small = blackscholes 40 in
  let sock = temp_sock () in
  let srv =
    Server.start
      { Server.default_config with unix_path = Some sock; jobs = 1 }
  in
  let big_done = Atomic.make false in
  let big_client =
    Thread.create
      (fun () ->
        push_bytes ~sock ~repeat:150 big;
        Atomic.set big_done true)
      ()
  in
  Thread.delay 0.2;
  push_bytes ~sock ~repeat:1 small;
  let small_first = not (Atomic.get big_done) in
  Thread.join big_client;
  let stats = Server.stats srv in
  Server.stop srv;
  Alcotest.(check int) "every trace folded" 151 stats.Server.s_traces;
  Alcotest.(check bool) "the small push returned before the big one" true
    small_first

(* After [stop], no connection holds a descriptor: clean, corrupt and
   silent peers leave the process with the descriptors it had before
   [start]. *)
let test_server_stop_closes_every_fd () =
  if not (Sys.file_exists fd_dir) then Alcotest.skip ();
  let s = trace_bytes ~version:2 () in
  let before = open_fds () in
  let sock = temp_sock () in
  let srv = start_test_server sock in
  push_bytes ~sock ~repeat:2 s;
  push_bytes ~flip:40 ~sock ~repeat:1 s;
  push_bytes ~sock ~repeat:1 (malformed_v3 ());
  let silent = connect_unix sock in
  Thread.delay 0.1;
  Server.stop srv;
  Unix.close silent;
  Alcotest.(check int) "descriptors after stop" before (open_fds ())

(* A routine name holding a line break would forge records in the
   snapshot CSV; the stream that defines one fails like any malformed
   stream, and only that connection. *)
let test_server_forged_name_isolated () =
  let forged = "r\nagg,0,7,99,1,1,1\nroutine,7,forged" in
  let run = Lazy.force small_run in
  let bad =
    Codec.to_string ~format_version:2
      ~routine_name:(fun r ->
        if r = 0 then forged
        else Aprof_trace.Routine_table.name run.Aprof_vm.Interp.routines r)
      run.Aprof_vm.Interp.trace
  in
  let good = trace_bytes ~version:2 () in
  let sock = temp_sock () in
  let out = Filename.temp_file "aprof_serve_test" ".csv" in
  let srv =
    Server.start
      {
        Server.default_config with
        unix_path = Some sock;
        jobs = 2;
        snapshot_profile = Some out;
      }
  in
  List.iter Thread.join
    (List.map
       (fun b -> Thread.create (fun () -> push_bytes ~sock ~repeat:1 b) ())
       [ good; bad; good ]);
  let stats = Server.stats srv in
  let errored =
    List.filter (fun (c : Fleet.client) -> c.Fleet.error <> None)
      (Server.clients srv)
  in
  Server.stop srv;
  Alcotest.(check int) "only good traces folded" 2 stats.Server.s_traces;
  Alcotest.(check int) "one errored client" 1 (List.length errored);
  let loaded = Aprof_core.Profile_io.load out in
  Sys.remove out;
  match loaded with
  | Error e -> Alcotest.failf "snapshot does not load: %s" e
  | Ok (got, names, _) ->
    Alcotest.(check bool) "no forged routine" false
      (List.exists (fun (_, n) -> n = "forged") names);
    Helpers.check_profiles_equal "snapshot = merge of the good streams"
      (expected_merge ~copies:2) got

(* A stream whose routine 0 is named with a line break. *)
let forged_stream () =
  let run = Lazy.force small_run in
  Codec.to_string ~format_version:2
    ~routine_name:(fun r ->
      if r = 0 then "r\nagg,0,7,99,1,1,1\nroutine,7,forged"
      else Aprof_trace.Routine_table.name run.Aprof_vm.Interp.routines r)
    run.Aprof_vm.Interp.trace

(* A failed connection's error is recorded before its descriptor goes:
   a peer that sees EOF already finds it in [clients]. *)
let test_server_error_before_eof () =
  let bad = forged_stream () in
  let sock = temp_sock () in
  let srv = start_test_server sock in
  let errors () =
    List.length
      (List.filter
         (fun (c : Fleet.client) -> c.Fleet.error <> None)
         (Server.clients srv))
  in
  let seen =
    List.init 20 (fun _ ->
        push_bytes ~sock ~repeat:1 bad;
        errors ())
  in
  Server.stop srv;
  Alcotest.(check (list int)) "one more error after each push"
    (List.init 20 succ) seen

(* Signal handlers run on whichever thread a signal interrupts, which may
   hold the daemon's lock: [request_snapshot] and [request_stop] must
   take none.  Two threads read [stats] in a loop (over 8 finished
   connections, so that they hold the lock a while) while 3,000 SIGUSR1s
   ask for snapshots; afterwards the daemon still folds a push, writes
   a requested snapshot and stops on a signal. *)
let test_server_signal_requests () =
  let pid = Unix.getpid () in
  let sock = temp_sock () in
  let out = Filename.temp_file "aprof_serve_test" ".csv" in
  let srv =
    Server.start
      {
        Server.default_config with
        unix_path = Some sock;
        jobs = 1;
        snapshot_profile = Some out;
      }
  in
  let raised = ref [] and m = Mutex.create () in
  let note e =
    Mutex.protect m (fun () -> raised := Printexc.to_string e :: !raised)
  in
  let within seconds ok =
    let deadline = Unix.gettimeofday () +. seconds in
    let rec poll () =
      ok () || (Unix.gettimeofday () < deadline && (Thread.delay 0.01; poll ()))
    in
    poll ()
  in
  let s = trace_bytes ~version:2 () in
  for _ = 1 to 8 do
    push_bytes ~sock ~repeat:1 s
  done;
  Thread.set_uncaught_exception_handler note;
  let usr1 =
    Sys.signal Sys.sigusr1
      (Sys.Signal_handle (fun _ -> Server.request_snapshot srv))
  in
  let usr2 =
    Sys.signal Sys.sigusr2
      (Sys.Signal_handle (fun _ -> Server.request_stop srv))
  in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigusr1 usr1;
      Sys.set_signal Sys.sigusr2 usr2;
      Thread.set_uncaught_exception_handler
        Thread.default_uncaught_exception_handler;
      if Sys.file_exists out then Sys.remove out)
    (fun () ->
      let probing = Atomic.make true in
      let probe () =
        try
          while Atomic.get probing do
            ignore (Server.stats srv)
          done
        with e -> note e
      in
      let probes = List.init 2 (fun _ -> Thread.create probe ()) in
      let storm =
        Unix.create_process "sh"
          [|
            "sh";
            "-c";
            Printf.sprintf
              "i=0; while [ $i -lt 3000 ]; do kill -USR1 %d; i=$((i+1)); done"
              pid;
          |]
          Unix.stdin Unix.stdout Unix.stderr
      in
      let rec reap () =
        try ignore (Unix.waitpid [] storm)
        with Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
      in
      reap ();
      Atomic.set probing false;
      List.iter Thread.join probes;
      Alcotest.(check (list string)) "no thread raised" [] !raised;
      (* Let the storm's last request write, then watch for a new one. *)
      Thread.delay 0.2;
      if Sys.file_exists out then Sys.remove out;
      ignore (Thread.create (fun () -> push_bytes ~sock ~repeat:1 s) ());
      Alcotest.(check bool) "a push is folded" true
        (within 10. (fun () -> (Server.stats srv).Server.s_traces = 9));
      Unix.kill pid Sys.sigusr1;
      Alcotest.(check bool) "a requested snapshot is written" true
        (within 10. (fun () -> Sys.file_exists out));
      (match Aprof_core.Profile_io.load out with
      | Ok (got, _, _) ->
        Helpers.check_profiles_equal "snapshot = every push"
          (expected_merge ~copies:9) got
      | Error e -> Alcotest.failf "snapshot does not load: %s" e);
      let stopped = Atomic.make false in
      ignore
        (Thread.create
           (fun () ->
             Server.wait srv;
             Atomic.set stopped true)
           ());
      Unix.kill pid Sys.sigusr2;
      Alcotest.(check bool) "wait returns after a stop signal" true
        (within 10. (fun () -> Atomic.get stopped));
      Alcotest.(check (list string)) "no thread raised" [] !raised)

let suite =
  [
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
    Alcotest.test_case "shards: fold/snapshot = offline merge"
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
    Alcotest.test_case "server: a stalled worker bounds what a connection buffers"
      `Quick test_server_stalled_worker_bounds_buffer;
    Alcotest.test_case "server: inbox_bytes below read_bytes still ingests"
      `Quick test_server_inbox_below_read_size;
    Alcotest.test_case "server: a failed full connection gives its slices back"
      `Quick test_server_finished_conn_gives_back_slices;
    Alcotest.test_case "server: one worker: a long stream cannot hold it"
      `Quick test_server_long_stream_cannot_hold_worker;
    Alcotest.test_case "server: stop leaves no descriptor open" `Quick
      test_server_stop_closes_every_fd;
    Alcotest.test_case "server: a forged routine name fails only its stream"
      `Quick test_server_forged_name_isolated;
    Alcotest.test_case "server: an error is recorded before the peer sees EOF"
      `Quick test_server_error_before_eof;
    Alcotest.test_case "server: signal handlers take no lock" `Quick
      test_server_signal_requests;
  ]
