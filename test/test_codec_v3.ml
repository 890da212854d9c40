(* Differential battery for format version 3, the redundancy-suppressed
   trace encoding: on every trace we can generate — random event
   vectors, every registered workload, 50 random VM programs — the v3
   encode/decode cycle must agree event-for-event (and name-for-name)
   with both the in-memory trace and the v2 cycle, with and without the
   entropy stage, through the in-memory, streaming-file, seeking, and
   keep-filtered read paths, and parallel replay of a v3 file must equal
   sequential replay.  The v3 byte stream for a tiny trace is pinned so
   the packed grammar cannot drift silently. *)

module Event = Aprof_trace.Event
module Batch = Event.Batch
module Stream = Aprof_trace.Trace_stream
module Codec = Aprof_trace.Trace_codec
module Trace = Aprof_trace.Trace
module Workload = Aprof_workloads.Workload
module Registry = Aprof_workloads.Registry
module Interp = Aprof_vm.Interp
module Tool = Aprof_tools.Tool

let decode_exn = Test_codec.decode_exn
let trace_equal = Test_codec.trace_equal
let decode_source = Test_codec.decode_source

let write_v3 ?(chunk_bytes = 256) ?index ?(entropy = true) ?routine_name trace
    file =
  Out_channel.with_open_bin file (fun oc ->
      let sink =
        Codec.batch_writer ~chunk_bytes ?index ~format_version:3 ~entropy
          ?routine_name oc
      in
      let batches = Helpers.batches_of_trace ~batch_size:16 trace in
      let rec loop () =
        match batches () with
        | None -> ()
        | Some b ->
          sink.Stream.emit_batch b;
          loop ()
      in
      loop ();
      sink.Stream.close_batch ())

let with_tmp f =
  let file = Filename.temp_file "aprof_v3" ".atrc" in
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () -> f file)

(* The three-way check at the heart of the battery: trace = decode(v2) =
   decode(v3, entropy) = decode(v3, raw), names identical across
   versions. *)
let check_trace ~label ?routine_name trace =
  let s2 = Codec.to_string ?routine_name trace in
  let s3 = Codec.to_string ~format_version:3 ?routine_name trace in
  let s3r =
    Codec.to_string ~format_version:3 ~entropy:false ?routine_name trace
  in
  let t2, n2 = decode_exn s2 in
  let t3, n3 = decode_exn s3 in
  let t3r, n3r = decode_exn s3r in
  trace_equal (label ^ ": v2 = trace") t2 trace;
  trace_equal (label ^ ": v3 = trace") t3 trace;
  trace_equal (label ^ ": v3 raw = trace") t3r trace;
  Alcotest.(check (list (pair int string)))
    (label ^ ": v3 names = v2 names")
    n2 n3;
  Alcotest.(check (list (pair int string)))
    (label ^ ": v3 raw names = v2 names")
    n2 n3r

(* Same trace through the on-disk streaming path with small chunks, so
   the per-chunk context resets, the repeat/pattern state machine and
   the footer cross-check all fire. *)
let check_file ~label ?routine_name trace =
  List.iter
    (fun entropy ->
      with_tmp (fun file ->
          write_v3 ~entropy ?routine_name trace file;
          In_channel.with_open_bin file (fun ic ->
              Alcotest.(check int)
                (label ^ ": file version") 3 (Codec.file_version ic));
          In_channel.with_open_bin file (fun ic ->
              let _, src = Codec.batch_reader ic in
              trace_equal
                (Printf.sprintf "%s: v3 file (entropy %b) = trace" label
                   entropy)
                (decode_source src) trace);
          (* And through the shard index, chunk by chunk. *)
          In_channel.with_open_bin file (fun ic ->
              match Codec.shards ~path:file ic with
              | None -> Alcotest.failf "%s: v3 file has no shard index" label
              | Some shs ->
                let total =
                  Array.fold_left (fun a sh -> a + sh.Codec.events) 0 shs
                in
                Alcotest.(check int)
                  (label ^ ": index event total")
                  (Trace.length trace) total;
                trace_equal
                  (label ^ ": v3 session read = trace")
                  (fst (Test_codec.session_read ic shs))
                  trace)))
    [ true; false ]

(* --- random event vectors --------------------------------------------- *)

let gen_round_trip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"v3 = v2 = trace on random traces" ~count:150
       ~print:Gen_trace.print
       (Gen_trace.gen ())
       (fun trace ->
         check_trace ~label:"gen" trace;
         true))

let single_events_round_trip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"v3 round-trips every event variant"
       ~count:1000 ~print:Event.to_string Test_codec.gen_event (fun ev ->
         let tr, _ =
           decode_exn (Codec.to_string ~format_version:3 (Trace.of_list [ ev ]))
         in
         Trace.length tr = 1 && Event.equal (Trace.get tr 0) ev))

(* --- workload registry ------------------------------------------------ *)

let registry_differential () =
  List.iter
    (fun (spec : Workload.spec) ->
      let result = Workload.run_spec spec ~threads:2 ~scale:60 ~seed:11 in
      let trace = result.Interp.trace in
      let routine_name =
        Aprof_trace.Routine_table.name result.Interp.routines
      in
      check_trace ~label:spec.Workload.name ~routine_name trace)
    Registry.all

(* One workload also goes through the file path: the in-memory
   [to_string] shares the encoder but not the flush/footer plumbing. *)
let registry_files () =
  List.iter
    (fun name ->
      let spec = Option.get (Registry.find name) in
      let result = Workload.run_spec spec ~threads:3 ~scale:80 ~seed:3 in
      let routine_name =
        Aprof_trace.Routine_table.name result.Interp.routines
      in
      check_file ~label:name ~routine_name result.Interp.trace)
    [ "canneal"; "dedup"; "mysqlslap" ]

(* --- random VM programs ----------------------------------------------- *)

let program_differential () =
  for seed = 0 to 49 do
    let w =
      { Workload.programs = Test_vm_differential.gen_program seed;
        devices = Test_vm_differential.gen_devices () }
    in
    let result =
      Workload.run ~scheduler:(Aprof_vm.Scheduler.Round_robin { slice = 8 }) w
        ~seed
    in
    check_trace ~label:(Printf.sprintf "program %d" seed) result.Interp.trace
  done;
  (* A few of them through the chunked file path too. *)
  for seed = 0 to 9 do
    let w =
      { Workload.programs = Test_vm_differential.gen_program seed;
        devices = Test_vm_differential.gen_devices () }
    in
    let result =
      Workload.run ~scheduler:(Aprof_vm.Scheduler.Round_robin { slice = 8 }) w
        ~seed
    in
    check_file ~label:(Printf.sprintf "program %d" seed) result.Interp.trace
  done

(* --- keep-filtered session reads -------------------------------------- *)

(* The work-stealing engine pushes its shard filter into the decoder;
   on v3 the filter must skip events without desynchronizing the delta
   registers.  Events kept through [chunk_session ~keep] must equal the
   plain filter over the decoded trace. *)
let keep_filter_session () =
  let spec = Option.get (Registry.find "dedup") in
  let result = Workload.run_spec spec ~threads:3 ~scale:80 ~seed:9 in
  let trace = result.Interp.trace in
  let keep tag tid = tid mod 2 = 0 || tag = Batch.tag_call in
  let expected = ref [] in
  let batches = Helpers.batches_of_trace trace in
  let rec loop () =
    match batches () with
    | None -> ()
    | Some b ->
      Batch.iter
        (fun tag tid arg len ->
          if keep tag tid then expected := (tag, tid, arg, len) :: !expected)
        b;
      loop ()
  in
  loop ();
  let expected = List.rev !expected in
  with_tmp (fun file ->
      write_v3 trace file;
      In_channel.with_open_bin file (fun ic ->
          let shs =
            match Codec.shards ~path:file ic with
            | Some shs -> shs
            | None -> Alcotest.fail "no shard index"
          in
          let _, read = Codec.chunk_session ~keep ic in
          let got = ref [] in
          Array.iter
            (fun sh ->
              let src = read sh in
              let rec drain () =
                match src () with
                | None -> ()
                | Some b ->
                  Batch.iter
                    (fun tag tid arg len ->
                      got := (tag, tid, arg, len) :: !got)
                    b;
                  drain ()
              in
              drain ())
            shs;
          let got = List.rev !got in
          Alcotest.(check int)
            "kept event count" (List.length expected) (List.length got);
          if got <> expected then
            Alcotest.fail "keep-filtered v3 session diverges from plain filter"))

(* --- parallel replay on v3 files -------------------------------------- *)

let parallel_v3_files () =
  List.iter
    (fun name ->
      let spec = Option.get (Registry.find name) in
      let result =
        Workload.run_spec
          ~scheduler:
            (Aprof_vm.Scheduler.Random_preemptive
               { min_slice = 4; max_slice = 32 })
          spec ~threads:3 ~scale:120 ~seed:5
      in
      let trace = result.Interp.trace in
      with_tmp (fun file ->
          write_v3 ~chunk_bytes:1024
            ~routine_name:
              (Aprof_trace.Routine_table.name result.Interp.routines)
            trace file;
          match Tool.Shards.of_file file with
          | None -> Alcotest.failf "%s: v3 file has no chunk index" name
          | Some shards ->
            Test_parallel_differential.check_shards
              ~label:(name ^ " (v3 file)")
              ~trace_events:(Trace.length trace) shards))
    [ "mysqlslap"; "dedup" ]

(* --- byte pin --------------------------------------------------------- *)

(* The packed grammar for a tiny trace, assembled by hand: def(0,"f") is
   opcode 15 + id + name-length + bytes, Call rides the implicit current
   tid (no set_tid at tid 0) with an absolute routine argument, Return is
   its bare tag.  The stored payload prepends the transform byte 0x01
   (packed, raw: 8 bytes is far below the entropy threshold), and the
   frame is the v2 layout over those stored bytes. *)
let v3_golden_bytes () =
  let trace =
    Trace.of_list [ Event.Call { tid = 0; routine = 0 }; Event.Return { tid = 0 } ]
  in
  let stored = "\x01\x0f\x00\x02f\x01\x00\x02" in
  let crc =
    Aprof_util.Crc32c.digest_string stored ~pos:0 ~len:(String.length stored)
  in
  let le32 = String.init 4 (fun i -> Char.chr ((crc lsr (8 * i)) land 0xff)) in
  let s =
    Codec.to_string ~format_version:3 ~routine_name:(fun _ -> "f") trace
  in
  Alcotest.(check string)
    "v3 golden"
    ("ATRC\x03\x08" ^ le32 ^ stored ^ "\x00")
    s

(* --- on-demand thread history ------------------------------------------ *)

(* Thread ids at the edges of the on-demand address history: 0 and 63
   fit its first 64 entries, 64 forces the first doubling, 4097 jumps
   far past it, 65535 is [Event.max_tid].  They interleave within one
   chunk (round-robin, then pseudo-random reads), inside repeat regions
   (one thread's strided sweep, then two threads alternating, so the
   region carries thread switches) and, through the 256-byte-chunk file
   path, across chunks. *)
let edge_tids = [ 0; 63; 64; 4097; 65535 ]

let edge_tid_trace () =
  let tr = Trace.create () in
  List.iteri
    (fun r tid -> Trace.push tr (Event.Call { tid; routine = r }))
    edge_tids;
  for i = 0 to 19 do
    List.iter
      (fun tid ->
        Trace.push tr (Event.Read { tid; addr = (1000 * tid) + (8 * i) }))
      edge_tids
  done;
  (* A pseudo-random interleaving: enough skewed literal bytes for the
     entropy stage to pay off. *)
  let x = ref 12345 in
  for _ = 1 to 2000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let tid = List.nth edge_tids ((!x lsr 16) mod 5) in
    Trace.push tr (Event.Read { tid; addr = 8 * (!x land 0xff) })
  done;
  for i = 0 to 199 do
    Trace.push tr (Event.Write { tid = 65535; addr = 64 * i })
  done;
  for i = 0 to 199 do
    Trace.push tr (Event.Write { tid = 65535; addr = 64 * i });
    Trace.push tr (Event.Read { tid = 4097; addr = 128 * i })
  done;
  List.iter
    (fun tid -> Trace.push tr (Event.Return { tid }))
    (List.rev edge_tids);
  tr

(* MD5 of the encodings written by the fixed-size history (65,536
   entries per array) that preceded on-demand sizing: the history's
   size must never show in the bytes. *)
let edge_tid_digests =
  [
    ("raw", "f09724308e33c776a1e3e896703de93e");
    ("entropy", "177eef378753268ad7b0406a64788208");
    ("file", "78f644a41fa437ea57e7ea9936ad61c9");
  ]

let edge_tid_encodings tr =
  let file =
    with_tmp (fun file ->
        write_v3 ~entropy:false tr file;
        In_channel.with_open_bin file In_channel.input_all)
  in
  [
    ("raw", Codec.to_string ~format_version:3 ~entropy:false tr);
    ("entropy", Codec.to_string ~format_version:3 ~entropy:true tr);
    ("file", file);
  ]

let thread_history_round_trip () =
  let tr = edge_tid_trace () in
  check_trace ~label:"edge tids" tr;
  check_file ~label:"edge tids" tr;
  List.iter
    (fun (name, s) ->
      Alcotest.(check string)
        ("edge tids " ^ name ^ " bytes")
        (List.assoc name edge_tid_digests)
        (Digest.to_hex (Digest.string s)))
    (edge_tid_encodings tr)

(* The history grows only as far as the tids a chunk names, on both
   sides of the codec. *)
let thread_history_sized_on_demand () =
  let module P = Aprof_trace.Trace_packed in
  let enc = P.create_encoder () in
  let dec = P.create_decoder () in
  let b = Batch.create () in
  let round tids =
    List.iter
      (fun tid ->
        P.add_event enc ~tag:Batch.tag_read ~tid ~arg:(8 * tid) ~len:0)
      tids;
    let chunk = P.take_chunk enc in
    P.start_chunk dec chunk ~pos:0 ~len:(Bytes.length chunk);
    Batch.clear b;
    Alcotest.(check bool) "chunk drained" true
      (P.fill dec ~define:(fun _ _ -> ()) b);
    Alcotest.(check (list int)) "tids decoded" tids
      (List.init (Batch.length b) (fun i -> (Batch.tids b).(i)));
    (Array.length enc.P.e_hist.P.epoch, Array.length dec.P.d_hist.P.epoch)
  in
  Alcotest.(check (pair int int)) "small tids keep the initial size" (64, 64)
    (round [ 0; 1; 63; 2 ]);
  Alcotest.(check (pair int int)) "tid 64 doubles" (128, 128) (round [ 64; 0 ]);
  Alcotest.(check (pair int int)) "max_tid reaches the full range"
    (Event.max_tid + 1, Event.max_tid + 1)
    (round [ 5; Event.max_tid ])

(* A thread switch beyond [Event.max_tid] (or below 0) is a clean decode
   error on every path, never an out-of-bounds history access. *)
let thread_history_rejects_bad_tid () =
  List.iter
    (fun zz_tid ->
      (* op_set_tid, the zigzag tid, then a Return on that thread *)
      let stored = "\x01\x10" ^ zz_tid ^ "\x02" in
      let b = Buffer.create 32 in
      Buffer.add_string b "ATRC\x03";
      Aprof_trace.Trace_frame.add_frame b stored;
      Buffer.add_char b '\x00';
      let s = Buffer.contents b in
      (match Codec.of_string s with
      | Ok _ -> Alcotest.fail "out-of-range set_tid decoded"
      | Error _ -> ());
      let net =
        Aprof_trace.Trace_net.create ~release:ignore
          {
            Aprof_trace.Trace_net.on_batch = ignore;
            on_define = (fun _ _ -> ());
            on_trace_end = ignore;
            on_drop = ignore;
          }
      in
      match
        Aprof_trace.Trace_net.feed net
          (Aprof_trace.Trace_net.scratch ())
          (Bytes.of_string s) ~pos:0 ~len:(String.length s)
      with
      | () -> Alcotest.fail "out-of-range set_tid streamed"
      | exception Stream.Decode_error _ -> ())
    [ (* zigzag 65536 *) "\x80\x80\x08"; (* zigzag (-1) *) "\x01" ]

(* A CRC-valid 24-byte trace whose one chunk claims 2^40 more passes
   over two reads: every reader must refuse it as soon as the repeat
   count exceeds the chunk's event budget, never expand it.  The stream
   readers count what they deliver and give up past 2^17 events, so a
   reader without the budget fails here rather than running for hours;
   [of_string], which cannot be watched, runs only after they passed. *)
let huge_repeat_rejected () =
  (* raw packed payload: two reads (tag 3, zigzag delta 5), then the
     repeat token over their 4 bytes, n = 2^40 (zigzag 2^41) *)
  let stored = "\x01\x03\x0a\x03\x0a\x11\x08\x80\x80\x80\x80\x80\x40" in
  let b = Buffer.create 32 in
  Buffer.add_string b "ATRC\x03";
  Aprof_trace.Trace_frame.add_frame b stored;
  Buffer.add_char b '\x00';
  let s = Buffer.contents b in
  Alcotest.(check int) "trace size" 24 (String.length s);
  let limit = 1 lsl 17 in
  let delivered = ref 0 in
  let count n =
    delivered := !delivered + n;
    if !delivered > limit then
      Alcotest.failf "decoded %d events of an over-budget chunk" !delivered
  in
  let file = Filename.temp_file "aprof_huge_repeat" ".atrc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file (fun oc -> output_string oc s);
      In_channel.with_open_bin file (fun ic ->
          match
            let _, src = Codec.batch_reader ic in
            let rec loop () =
              match src () with
              | None -> ()
              | Some b ->
                count (Batch.length b);
                loop ()
            in
            loop ()
          with
          | () -> Alcotest.fail "batch_reader accepted the chunk"
          | exception Stream.Decode_error _ -> ()));
  let module Net = Aprof_trace.Trace_net in
  let net_feed ~salvage ~on_drop =
    delivered := 0;
    let net =
      Net.create ~salvage ~release:ignore
        {
          Net.on_batch = (fun b -> count (Batch.length b));
          on_define = (fun _ _ -> ());
          on_trace_end = ignore;
          on_drop;
        }
    in
    Net.feed net (Net.scratch ()) (Bytes.of_string s) ~pos:0
      ~len:(String.length s);
    Net.close net
  in
  (match net_feed ~salvage:false ~on_drop:ignore with
  | () -> Alcotest.fail "Trace_net accepted the chunk"
  | exception Stream.Decode_error _ -> ());
  (* Salvage's whole-chunk stage has the same bound: the chunk drops. *)
  let drops = ref 0 in
  net_feed ~salvage:true ~on_drop:(fun _ -> incr drops);
  Alcotest.(check (pair int int)) "salvage drops the chunk, delivers nothing"
    (1, 0) (!drops, !delivered);
  match Codec.of_string s with
  | Ok _ -> Alcotest.fail "of_string accepted the chunk"
  | Error _ -> ()

(* A repeat-heavy trace at the default chunk size fills every chunk
   but the last on the writer's event count, so each holds exactly the
   budget, {!Aprof_trace.Trace_packed.max_chunk_events}.  Every salvage
   path must take such chunks whole: the indexed and index-less
   [read ~on_corrupt:`Skip] and a salvaging push all deliver the strict
   reader's events, with no drop. *)
let full_chunks_salvage () =
  let full = Aprof_trace.Trace_packed.max_chunk_events in
  let tr = Trace.create () in
  Trace.push tr (Event.Call { tid = 0; routine = 0 });
  for _ = 1 to (2 * full) + 100 do
    Trace.push tr (Event.Read { tid = 0; addr = 4096 })
  done;
  Trace.push tr (Event.Return { tid = 0 });
  let module Net = Aprof_trace.Trace_net in
  with_tmp (fun file ->
      List.iter
        (fun index ->
          let label = if index then "indexed" else "index-less" in
          write_v3 ~chunk_bytes:(64 * 1024) ~index ~entropy:false tr file;
          let strict =
            In_channel.with_open_bin file (fun ic ->
                decode_source (snd (Codec.batch_reader ic)))
          in
          trace_equal (label ^ ": strict read = trace") strict tr;
          if index then
            In_channel.with_open_bin file (fun ic ->
                let shs = Option.get (Codec.shards ~path:file ic) in
                Alcotest.(check (list int))
                  "chunk event counts"
                  [ full; full; 102 ]
                  (Array.to_list (Array.map (fun sh -> sh.Codec.events) shs)));
          let drops = ref [] in
          let on_drop (d : Codec.drop) = drops := d.drop_reason :: !drops in
          let salvaged =
            In_channel.with_open_bin file (fun ic ->
                decode_source
                  (snd (Codec.read ~on_corrupt:(`Skip on_drop) ic)))
          in
          Alcotest.(check (list string)) (label ^ ": read drops") [] !drops;
          trace_equal (label ^ ": salvaging read = strict") salvaged strict;
          let pushed = Trace.create () in
          let net =
            Net.create ~salvage:true ~release:ignore
              {
                Net.on_batch = Batch.iter_events (Trace.push pushed);
                on_define = (fun _ _ -> ());
                on_trace_end = ignore;
                on_drop;
              }
          in
          let s = In_channel.with_open_bin file In_channel.input_all in
          Net.feed net (Net.scratch ()) (Bytes.of_string s) ~pos:0
            ~len:(String.length s);
          Net.close net;
          Alcotest.(check (list string)) (label ^ ": push drops") [] !drops;
          trace_equal (label ^ ": salvaging push = strict") pushed strict)
        [ true; false ])

(* --- compression smoke ------------------------------------------------ *)

(* A strided sweep — the shape the delta + repeat stages exist for —
   must compress hard; the CI gate enforces the real workload ratio, this
   pins the mechanism itself. *)
let compression_smoke () =
  let tr = Trace.create () in
  Trace.push tr (Event.Call { tid = 0; routine = 0 });
  for i = 0 to 49_999 do
    Trace.push tr (Event.Read { tid = 0; addr = 4096 + (8 * i) });
    Trace.push tr (Event.Write { tid = 0; addr = 1_048_576 + (8 * i) })
  done;
  Trace.push tr (Event.Return { tid = 0 });
  let v2 = String.length (Codec.to_string tr) in
  let v3 = String.length (Codec.to_string ~format_version:3 tr) in
  if v3 * 5 > v2 then
    Alcotest.failf "strided sweep: v3 is %d bytes, v2 %d (want >= 5x)" v3 v2;
  (* The decoded stream must still be exact. *)
  let t3, _ = decode_exn (Codec.to_string ~format_version:3 tr) in
  trace_equal "compressed sweep round-trips" t3 tr

let suite =
  [
    gen_round_trip;
    single_events_round_trip;
    Alcotest.test_case "v3 = v2 = memory on every registered workload" `Slow
      registry_differential;
    Alcotest.test_case "v3 file paths on workload traces" `Slow registry_files;
    Alcotest.test_case "v3 = v2 = memory on 50 random programs" `Slow
      program_differential;
    Alcotest.test_case "keep-filtered v3 session = plain filter" `Quick
      keep_filter_session;
    Alcotest.test_case "parallel replay of v3 files, -j {2,3,4}" `Slow
      parallel_v3_files;
    Alcotest.test_case "v3 byte stream is pinned" `Quick v3_golden_bytes;
    Alcotest.test_case "edge thread ids round-trip, bytes unchanged" `Quick
      thread_history_round_trip;
    Alcotest.test_case "thread history is sized on demand" `Quick
      thread_history_sized_on_demand;
    Alcotest.test_case "set_tid out of range is a decode error" `Quick
      thread_history_rejects_bad_tid;
    Alcotest.test_case "over-budget repeat count is a decode error" `Quick
      huge_repeat_rejected;
    Alcotest.test_case "full-budget chunks salvage whole" `Quick
      full_chunks_salvage;
    Alcotest.test_case "strided sweep compresses >= 5x" `Quick
      compression_smoke;
  ]
