(* One ATRC decoder, many drivers.  Every reader — the file reader
   ({!Codec.read}, which feeds the decoder a channel's slices), a
   connection's decoder ({!Trace_net.feed}) at any slice size,
   {!Codec.of_string}, and chunk sessions over the shard index — must
   return exactly what the writer was given; on damaged bytes the stream
   drivers must agree with each other, and nothing but [Decode_error]
   may escape any of them.  Salvage must describe the same damage the
   same way on every path. *)

module Event = Aprof_trace.Event
module Batch = Event.Batch
module Stream = Aprof_trace.Trace_stream
module Codec = Aprof_trace.Trace_codec
module Trace_net = Aprof_trace.Trace_net
module Trace = Helpers.Trace

(* A driver's result: event lines, and definitions as the driver
   reports them (a name table has no order, so it is sorted). *)
type outcome = Decoded of string list * (int * string) list | Refused

let show = function
  | Decoded (lines, defs) ->
    Printf.sprintf "%d events, %d definitions" (List.length lines)
      (List.length defs)
  | Refused -> "decode error"

(* The event lines the push reader [read] hands over, and what it
   returned. *)
let lines_of read =
  let out = ref [] in
  let r = read (Batch.iter_events (fun e -> out := Event.to_line e :: !out)) in
  (List.rev !out, r)

let sorted_table tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Only [Decode_error] may escape a driver; anything else fails the
   test right here. *)
let outcome_of ~driver f =
  match f () with
  | lines, defs -> Decoded (lines, defs)
  | exception Stream.Decode_error _ -> Refused
  | exception e ->
    Alcotest.failf "%s leaked exception %s" driver (Printexc.to_string e)

let with_file s f =
  let file = Filename.temp_file "aprof_decoders" ".atrc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file (fun oc -> output_string oc s);
      f file)

let file ?chunk_bytes s =
  outcome_of ~driver:"file reader" (fun () ->
      with_file s (fun file ->
          In_channel.with_open_bin file (fun ic ->
              let lines, (names, _) =
                lines_of (Codec.read ?chunk_bytes ~on_corrupt:`Fail ic)
              in
              (lines, sorted_table names))))

(* Feed [s] to [net] [slice] bytes at a time, each in a buffer of its
   own as a connection's reads arrive, on one scratch. *)
let feed_slices net s ~slice =
  let scratch = Trace_net.scratch () in
  let pos = ref 0 in
  while !pos < String.length s do
    let len = min slice (String.length s - !pos) in
    Trace_net.feed net scratch (Bytes.of_string (String.sub s !pos len))
      ~pos:0 ~len;
    pos := !pos + len
  done

(* A connection's decoder reading one input: a second trace is not
   this input's. *)
let push ~slice s =
  outcome_of ~driver:"connection decoder" (fun () ->
      let lines = ref [] and defs = ref [] in
      let net =
        Trace_net.create ~release:ignore
          {
            Trace_net.on_batch =
              Batch.iter_events (fun e -> lines := Event.to_line e :: !lines);
            on_define = (fun id name -> defs := (id, name) :: !defs);
            on_trace_end = ignore;
            on_drop = ignore;
          }
      in
      feed_slices net s ~slice;
      Trace_net.close net;
      if Trace_net.traces_completed net <> 1 then
        raise (Stream.Decode_error "not exactly one trace");
      (List.rev !lines, List.rev !defs))

let of_string s =
  outcome_of ~driver:"of_string" (fun () ->
      match Codec.of_string s with
      | Ok (tr, defs) -> (List.map Event.to_line (Trace.to_list tr), defs)
      | Error m -> raise (Stream.Decode_error m))

(* Every chunk of the shard index through one chunk session.  [None]
   when the bytes carry no index. *)
let sessions s =
  with_file s (fun file ->
      match
        In_channel.with_open_bin file (fun ic ->
            match Codec.shards ~path:file ic with
            | None -> None
            | Some shs ->
              let names, read = Codec.chunk_session ic in
              let parts = Array.map (fun sh -> fst (lines_of (read sh))) shs in
              Some (List.concat (Array.to_list parts), sorted_table names))
      with
      | None -> None
      | Some (lines, defs) -> Some (Decoded (lines, defs))
      | exception Stream.Decode_error _ -> Some Refused
      | exception e ->
        Alcotest.failf "chunk session leaked exception %s"
          (Printexc.to_string e))

let sorted = function
  | Decoded (lines, defs) -> Decoded (lines, List.sort compare defs)
  | Refused -> Refused

(* What a name table keeps of definitions in stream order: the last name
   per id.  Drivers that report a table ([file], chunk sessions) are
   compared with this; damage can turn a record into a second definition
   of an id, which a list reports twice and a table once. *)
let as_table = function
  | Decoded (lines, defs) ->
    let tbl = Hashtbl.create 16 in
    List.iter (fun (id, name) -> Hashtbl.replace tbl id name) defs;
    Decoded (lines, sorted_table tbl)
  | Refused -> Refused

let routine_name id = Printf.sprintf "routine %d, \xe2\x86\x92 %d" id (id * 7)

(* What the writer was given: the event lines, and one definition per
   routine at its first [Call]. *)
let writer_input ?(routine_name = routine_name) trace =
  let seen = Hashtbl.create 16 in
  let defs = ref [] in
  Trace.iter
    (function
      | Event.Call { routine; _ } when not (Hashtbl.mem seen routine) ->
        Hashtbl.add seen routine ();
        defs := (routine, routine_name routine) :: !defs
      | _ -> ())
    trace;
  (List.map Event.to_line (Trace.to_list trace), List.rev !defs)

let encode ?(index = true) ?(chunk_bytes = 128) ~format_version ~entropy trace
    =
  let file = Filename.temp_file "aprof_decoders_w" ".atrc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file (fun oc ->
          Helpers.write_batches ~batch_size:16 trace
            (Codec.batch_writer ~chunk_bytes ~index ~format_version ~entropy
               ~routine_name oc));
      In_channel.with_open_bin file In_channel.input_all)

(* (format version, entropy): every encoding the writers produce. *)
let formats = [ (1, false); (2, false); (3, false); (3, true) ]

let gen_case =
  QCheck2.Gen.(
    let* trace = Gen_trace.gen () in
    let* format = oneofl formats in
    let* chunk_bytes = int_range 1 300 in
    let* slice = int_range 1 64 in
    let* writer_chunk = oneofl [ 64; 128; 512 ] in
    return (trace, format, chunk_bytes, slice, writer_chunk))

let print_case (trace, (v, e), chunk_bytes, slice, writer_chunk) =
  Printf.sprintf "v%d entropy=%b chunk_bytes=%d slice=%d writer_chunk=%d\n%s" v
    e chunk_bytes slice writer_chunk (Gen_trace.print trace)

(* Pristine bytes: all four drivers return exactly the encoder's input. *)
let drivers_return_input =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"every driver returns the encoder's input"
       ~count:200 ~print:print_case gen_case
       (fun (trace, (format_version, entropy), chunk_bytes, slice, writer_chunk)
       ->
         let s =
           encode ~chunk_bytes:writer_chunk ~format_version ~entropy trace
         in
         let lines, defs = writer_input trace in
         let expected = Decoded (lines, defs) in
         let check name got want =
           if got <> want then
             QCheck2.Test.fail_reportf "%s: %s, expected %s" name (show got)
               (show want)
         in
         check "of_string" (of_string s) expected;
         check "push" (push ~slice s) expected;
         check "push, whole" (push ~slice:(String.length s) s) expected;
         check "file" (file ~chunk_bytes s) (sorted expected);
         (match sessions s with
         | Some o -> check "sessions" o (sorted expected)
         | None -> QCheck2.Test.fail_reportf "sessions: no shard index");
         true))

(* --- version-3 files with tag patterns -------------------------------- *)

(* The writer no longer defines tag patterns, but every version-3 file
   written before it stopped may carry them, so the reader's half of the
   dictionary (groups 18, 19 and 32..255) is tested on a committed
   fixture: golden/v3_patterns_{raw,entropy}.bin.  Nothing in the
   repository writes these files.  They were written by the last writer
   that defined patterns (commit ea7d47c), raw and with the entropy
   stage, as [batch_writer ~chunk_bytes:4096 ~format_version:3] over
   [long_pattern_prelude ()] followed by swaptions (4 threads, scale 60,
   seed 1); then one hand-assembled chunk was framed in before the end
   marker and the footer rewritten to index all three chunks.  The
   expected events come from that generating code, never from today's
   writer:

   - chunk 0 holds the prelude and defines more than 224 patterns, so
     besides definitions (18) and short uses (32..255) it holds long
     uses (19, ids 224 and up), two of them inside repeat regions;
   - chunk 1 (swaptions) restarts the dictionary, and most of its short
     uses sit inside repeat regions;
   - chunk 2, stored raw in both files, is the case the writer cannot
     reach within one chunk: a use of a pattern that a later definition
     with the same first tag displaced.  The writer starts every
     instance at the newest pattern for its first tag, so once pattern 1
     (Read, Read) is defined, a Read–Write pair of that chunk goes out as
     literals, never as pattern 0.  Its bytes: transform 0x01; 12 04 03
     04 defines pattern 0 = (Read, Write); 12 04 03 03 defines pattern 1
     = (Read, Read); 20 20 30 uses pattern 0 with address deltas 16 and
     24; 21 20 20 uses pattern 1 with deltas 16 and 16 against the
     depth-2 registers, giving [displaced_events]. *)
let pattern_fixtures =
  [
    ("v3_patterns_raw.bin", "955d4de8988900713e4b40b68b29901a");
    ("v3_patterns_entropy.bin", "05dcc695b72ef0c0abc42d6274856ed4");
  ]

let fixture_bytes name =
  In_channel.with_open_bin (Test_golden.golden_path name) In_channel.input_all

(* Every ordered pair of the thirteen tags after [Call], each twice in a
   row, then triples, then a strided loop over one triple: more than 224
   distinct tag tandems in one chunk. *)
let long_pattern_prelude () =
  let tr = Trace.create () in
  let event tag i : Event.t =
    let tid = 0 in
    match tag with
    | 2 -> Return { tid }
    | 3 -> Read { tid; addr = 8 * i }
    | 4 -> Write { tid; addr = 8 * i }
    | 5 -> Block { tid; units = 1 + (i land 3) }
    | 6 -> User_to_kernel { tid; addr = 64; len = 4 }
    | 7 -> Kernel_to_user { tid; addr = 64; len = 4 }
    | 8 -> Acquire { tid; lock = 1 }
    | 9 -> Release { tid; lock = 1 }
    | 10 -> Alloc { tid; addr = 128; len = 2 }
    | 11 -> Free { tid; addr = 128; len = 2 }
    | 12 -> Thread_start { tid }
    | 13 -> Thread_exit { tid }
    | _ -> Switch_thread { tid }
  in
  let push tags i = List.iter (fun tag -> Trace.push tr (event tag i)) tags in
  let tags = List.init 13 (fun i -> i + 2) in
  List.iter (fun x -> List.iter (fun y -> push [ x; y; x; y ] 0) tags) tags;
  List.iter
    (fun x -> List.iter (fun y -> push [ x; y; 3; x; y; 3 ] 0) tags)
    [ 4; 5; 6; 7; 8 ];
  for i = 0 to 9 do
    push [ 8; 14; 3 ] i
  done;
  tr

let displaced_events =
  Event.
    [
      Read { tid = 0; addr = 16 };
      Write { tid = 0; addr = 24 };
      Read { tid = 0; addr = 32 };
      Read { tid = 0; addr = 40 };
    ]

(* What the fixture's generating code wrote: event lines and names. *)
let fixture_input =
  lazy
    (let spec = Option.get (Aprof_workloads.Registry.find "swaptions") in
     let result =
       Aprof_workloads.Workload.run_spec spec ~threads:4 ~scale:60 ~seed:1
     in
     let trace = Trace.create () in
     Trace.replay (long_pattern_prelude ()) (Trace.add_batch trace);
     Trace.replay result.Aprof_vm.Interp.trace (Trace.add_batch trace);
     List.iter (Trace.push trace) displaced_events;
     writer_input
       ~routine_name:
         (Aprof_trace.Routine_table.name result.Aprof_vm.Interp.routines)
       trace)

(* Where two outcomes part: the first event line that differs. *)
let difference got want =
  match (got, want) with
  | Decoded (g, _), Decoded (w, _) when g <> w ->
    let rec first i = function
      | x :: xs, y :: ys when x = y -> first (i + 1) (xs, ys)
      | x :: _, y :: _ -> Printf.sprintf "event %d is %S, expected %S" i x y
      | [], y :: _ -> Printf.sprintf "no event %d, expected %S" i y
      | x :: _, [] -> Printf.sprintf "extra event %d %S" i x
      | [], [] -> assert false
    in
    first 0 (g, w)
  | _ -> Printf.sprintf "%s, expected %s" (show got) (show want)

let pattern_fixture_decodes () =
  let lines, defs = Lazy.force fixture_input in
  let expected = Decoded (lines, defs) in
  List.iter
    (fun (name, md5) ->
      let s = fixture_bytes name in
      Alcotest.(check string)
        (name ^ ": pinned bytes") md5
        (Digest.to_hex (Digest.string s));
      List.iter
        (fun (driver, got, want) ->
          if got <> want then
            Alcotest.failf "%s, %s: %s" name driver (difference got want))
        [
          ("of_string", of_string s, expected);
          ("file", file s, sorted expected);
          ("push, 1-byte slices", push ~slice:1 s, expected);
          ("push, 7-byte slices", push ~slice:7 s, expected);
          ("push, whole", push ~slice:(String.length s) s, expected);
          ( "sessions",
            Option.value (sessions s) ~default:Refused,
            sorted expected );
        ])
    pattern_fixtures

type mutation =
  | Flip of int * int
  | Cut of int
  | Drop_byte of int
  | Junk of string

let apply s = function
  | Flip (i, mask) ->
    let i = i mod String.length s in
    String.mapi
      (fun j c -> if j = i then Char.chr (Char.code c lxor mask) else c)
      s
  | Cut n -> String.sub s 0 (n mod String.length s)
  | Drop_byte i ->
    let i = i mod String.length s in
    String.sub s 0 i ^ String.sub s (i + 1) (String.length s - i - 1)
  | Junk j -> s ^ j

let show_mutation = function
  | Flip (i, m) -> Printf.sprintf "flip byte %d mask %#x" i m
  | Cut n -> Printf.sprintf "cut at %d" n
  | Drop_byte i -> Printf.sprintf "drop byte %d" i
  | Junk j -> Printf.sprintf "append %S" j

let gen_mutation =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun i b -> Flip (i, 1 lsl b)) nat (int_range 0 7);
        map2 (fun i m -> Flip (i, m)) nat (int_range 1 255);
        map (fun n -> Cut n) nat;
        map (fun i -> Drop_byte i) nat;
        map (fun j -> Junk j) (string_size (int_range 1 8));
      ])

(* Damaged bytes: the stream drivers agree exactly (same events and
   names, or all refuse), and only [Decode_error] escapes any driver.  A
   chunk session over a parseable index either refuses or agrees with a
   successful stream read — except on version 1, whose chunks carry no
   checksum: a damaged record decodes differently from a chunk start
   than from the stream's.  The bytes are a fresh encoding of the case's
   trace or, in about one case in eight, a pattern fixture (read with
   the case's slice sizes). *)
let drivers_agree_on_damage =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"damaged bytes: drivers agree or refuse"
       ~count:400
       ~print:(fun (case, fixture, m) ->
         show_mutation m ^ "\n"
         ^ Option.fold ~none:"" ~some:(Printf.sprintf "bytes of %s\n") fixture
         ^ print_case case)
       QCheck2.Gen.(
         triple gen_case
           (frequency
              [
                (7, pure None);
                (1, map Option.some (oneofl (List.map fst pattern_fixtures)));
              ])
           gen_mutation)
       (fun (case, fixture, m) ->
         let trace, (format_version, entropy), chunk_bytes, slice, writer_chunk =
           case
         in
         let s, format_version =
           match fixture with
           | Some name -> (fixture_bytes name, 3)
           | None ->
             ( encode ~chunk_bytes:writer_chunk ~format_version ~entropy trace,
               format_version )
         in
         let s = apply s m in
         let stream = of_string s in
         let reference = sorted stream and table = as_table stream in
         List.iter
           (fun (name, got, expected) ->
             if sorted got <> expected then
               QCheck2.Test.fail_reportf "%s: %s, of_string: %s" name
                 (show got) (show expected))
           [
             ("push", push ~slice s, reference);
             ("push, whole", push ~slice:(String.length s) s, reference);
             ("file", file ~chunk_bytes s, table);
           ];
         (match (sessions s, table) with
         | (None | Some Refused), _ | Some _, Refused -> ()
         | Some o, _ ->
           if format_version >= 2 && o <> table then
             QCheck2.Test.fail_reportf "sessions: %s, stream: %s" (show o)
               (show table));
         true))

(* --- footer drift --------------------------------------------------- *)

let recorded name ~format_version =
  let spec = Option.get (Aprof_workloads.Registry.find name) in
  let result =
    Aprof_workloads.Workload.run_spec spec ~threads:2 ~scale:40 ~seed:3
  in
  let trace = result.Aprof_vm.Interp.trace in
  let file = Filename.temp_file "aprof_decoders_r" ".atrc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file (fun oc ->
          Helpers.write_batches trace
            (Codec.batch_writer ~chunk_bytes:512 ~format_version
               ~routine_name:
                 (Aprof_trace.Routine_table.name
                    result.Aprof_vm.Interp.routines)
               oc));
      In_channel.with_open_bin file In_channel.input_all)

let footer_offset s =
  let n = String.length s in
  let v = ref 0 in
  for i = 7 downto 0 do
    v := (!v lsl 8) lor Char.code s.[n - 12 + i]
  done;
  !v

(* Every bit of every footer byte, and junk after the footer: the same
   outcome through of_string, the file reader, and a connection's
   decoder fed whole and byte by byte — the original trace, or a clean
   error. *)
let footer_drift () =
  List.iter
    (fun (name, format_version) ->
      let s = recorded name ~format_version in
      let original = sorted (of_string s) in
      (match original with
      | Decoded _ -> ()
      | Refused ->
        Alcotest.failf "%s v%d: pristine trace refused" name format_version);
      let check label s =
        let reference = sorted (of_string s) in
        if reference <> Refused && reference <> original then
          Alcotest.failf "%s v%d %s: decoded a different trace" name
            format_version label;
        List.iter
          (fun (driver, got) ->
            if sorted got <> reference then
              Alcotest.failf "%s v%d %s: %s gives %s, of_string %s" name
                format_version label driver (show got) (show reference))
          [
            ("file", file s);
            ("push, whole", push ~slice:(String.length s) s);
            ("push, 1-byte slices", push ~slice:1 s);
          ]
      in
      let footer = footer_offset s in
      for i = footer to String.length s - 1 do
        for bit = 0 to 7 do
          check
            (Printf.sprintf "flip bit %d of byte %d" bit i)
            (apply s (Flip (i, 1 lsl bit)))
        done
      done;
      check "7 junk bytes" (s ^ "\x11\x22\x33\x44\x55\x66\x77");
      (* Every version checks the footer's layout: a damaged trailer
         magic is refused. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s v%d: damaged trailer magic refused" name
           format_version)
        true
        (of_string (apply s (Flip (String.length s - 1, 1))) = Refused))
    [ ("blackscholes", 1); ("canneal", 2); ("bodytrack", 3) ]

(* A file or string holds one trace; a connection takes them
   back-to-back. *)
let one_trace_per_input () =
  let trace = Test_codec.sample_trace 4 in
  List.iter
    (fun (format_version, entropy) ->
      let s = encode ~format_version ~entropy trace in
      let twice = s ^ s in
      let label = Printf.sprintf "v%d entropy=%b" format_version entropy in
      Alcotest.(check bool) (label ^ ": of_string refuses") true
        (of_string twice = Refused);
      Alcotest.(check bool) (label ^ ": the file reader refuses") true
        (file twice = Refused);
      let traces = ref 0 in
      let net =
        Trace_net.create ~release:ignore
          {
            Trace_net.on_batch = ignore;
            on_define = (fun _ _ -> ());
            on_trace_end = (fun () -> incr traces);
            on_drop = ignore;
          }
      in
      feed_slices net twice ~slice:(String.length twice);
      Trace_net.close net;
      Alcotest.(check int) (label ^ ": a connection takes both") 2 !traces)
    formats

(* --- one drop record per damage ------------------------------------- *)

let drop_fields (d : Codec.drop) =
  ( d.Codec.drop_chunk,
    d.Codec.drop_offset,
    d.Codec.drop_bytes,
    d.Codec.drop_reason )

let pp_drop (c, o, b, r) =
  Printf.sprintf "chunk %d at %d (%d bytes): %s" c o b r

(* Salvage through the file reader, and through a connection's decoder
   fed [slice] bytes at a time: the drop records and the events
   delivered. *)
let file_salvage s =
  with_file s (fun file ->
      In_channel.with_open_bin file (fun ic ->
          let drops = ref [] in
          let lines, _ =
            lines_of
              (Codec.read ~path:file
                 ~on_corrupt:(`Skip (fun d -> drops := drop_fields d :: !drops))
                 ic)
          in
          (List.rev_map pp_drop !drops, List.length lines)))

let net_salvage ~slice s =
  let drops = ref [] and events = ref 0 in
  let net =
    Trace_net.create ~salvage:true ~release:ignore
      {
        Trace_net.on_batch = (fun b -> events := !events + Batch.length b);
        on_define = (fun _ _ -> ());
        on_trace_end = ignore;
        on_drop = (fun d -> drops := drop_fields d :: !drops);
      }
  in
  feed_slices net s ~slice;
  Trace_net.close net;
  (List.rev_map pp_drop !drops, !events)

(* The same CRC-damaged chunk through file salvage without an index,
   a connection's decoder under salvage (byte by byte and whole), and
   indexed salvage with the footer kept: one identical drop record.  A
   file cut inside that chunk ends every index-less path with the same
   terminal drop at its frame, after the same events. *)
let drop_records_agree () =
  let spec = Option.get (Aprof_workloads.Registry.find "canneal") in
  let result =
    Aprof_workloads.Workload.run_spec spec ~threads:2 ~scale:60 ~seed:5
  in
  let trace = result.Aprof_vm.Interp.trace in
  List.iter
    (fun format_version ->
      let indexed = encode ~format_version ~entropy:false trace in
      let bare = encode ~index:false ~format_version ~entropy:false trace in
      let shs =
        with_file indexed (fun file ->
            In_channel.with_open_bin file (fun ic ->
                Option.get (Codec.shards ~path:file ic)))
      in
      Alcotest.(check bool) "several chunks" true (Array.length shs > 2);
      let k = Array.length shs / 2 in
      let sh = shs.(k) in
      let damage s =
        apply s (Flip (sh.Codec.offset + (sh.Codec.bytes / 2), 0x10))
      in
      let index_less label s expected =
        List.iter
          (fun (path, got) ->
            Alcotest.(check (pair (list string) int))
              (Printf.sprintf "v%d %s: %s" format_version label path)
              expected got)
          [
            ("file salvage without an index", file_salvage s);
            ("push salvage, 1-byte slices", net_salvage ~slice:1 s);
            ("push salvage, whole", net_salvage ~slice:max_int s);
          ]
      in
      let expected = file_salvage (damage indexed) in
      (match expected with
      | [ d ], events ->
        let prefix =
          Printf.sprintf "chunk %d at %d (%d bytes): checksum mismatch" k
            sh.Codec.offset sh.Codec.bytes
        in
        Alcotest.(check bool)
          (Printf.sprintf "v%d indexed salvage: %s" format_version prefix)
          true
          (String.starts_with ~prefix d);
        Alcotest.(check int) "every other chunk survives"
          (Trace.length trace - sh.Codec.events)
          events
      | ds, _ -> Alcotest.failf "indexed salvage: %d drops" (List.length ds));
      index_less "checksum damage" (damage bare) expected;
      let before = ref 0 in
      for i = 0 to k - 1 do
        before := !before + shs.(i).Codec.events
      done;
      let frame =
        sh.Codec.offset - Aprof_trace.Trace_wire.uvarint_size sh.Codec.bytes - 4
      in
      let broken_length =
        String.mapi
          (fun i c ->
            if i >= frame && i < frame + 4 then '\xff'
            else if i = frame + 4 then '\x0f'
            else c)
          bare
      in
      index_less "broken frame length" broken_length
        ( [ pp_drop (k, frame, -1, "implausible chunk length 4294967295") ],
          !before );
      index_less "cut inside the chunk"
        (String.sub bare 0 (sh.Codec.offset + (sh.Codec.bytes / 2)))
        ( [
            pp_drop
              (k, frame, -1, "truncated trace (missing end-of-trace marker)");
          ],
          !before ))
    [ 2; 3 ]

(* A chunk that passes its checksum but fails to decode is dropped
   with the definitions it carried: only clean chunks name routines. *)
let dropped_chunk_defines_nothing () =
  let module R = Aprof_trace.Trace_record in
  let payload records =
    let b = Buffer.create 64 in
    records b;
    Buffer.contents b
  in
  let good =
    payload (fun b ->
        R.add_def b 0 "kept";
        R.add_record b ~tag:Batch.tag_call ~tid:0 ~arg:0 ~len:0;
        R.add_record b ~tag:Batch.tag_return ~tid:0 ~arg:0 ~len:0)
  in
  let bad =
    payload (fun b ->
        R.add_def b 1 "dropped";
        R.add_record b ~tag:Batch.tag_call ~tid:0 ~arg:1 ~len:0;
        Buffer.add_char b '\x1f')
  in
  let b = Buffer.create 128 in
  Buffer.add_string b "ATRC\x02";
  ignore (Aprof_trace.Trace_frame.add_frame b good);
  ignore (Aprof_trace.Trace_frame.add_frame b bad);
  Buffer.add_char b '\x00';
  let s = Buffer.contents b in
  let file_names, file_events, file_drops =
    with_file s (fun file ->
        In_channel.with_open_bin file (fun ic ->
            let drops = ref 0 in
            let lines, (names, _) =
              lines_of
                (Codec.read ~path:file
                   ~on_corrupt:(`Skip (fun _ -> incr drops))
                   ic)
            in
            (sorted_table names, List.length lines, !drops)))
  in
  let defs = ref [] and events = ref 0 and drops = ref 0 in
  let net =
    Trace_net.create ~salvage:true ~release:ignore
      {
        Trace_net.on_batch = (fun b -> events := !events + Batch.length b);
        on_define = (fun id name -> defs := (id, name) :: !defs);
        on_trace_end = ignore;
        on_drop = (fun _ -> incr drops);
      }
  in
  feed_slices net s ~slice:(String.length s);
  Trace_net.close net;
  List.iter
    (fun (path, names, events, drops) ->
      Alcotest.(check (list (pair int string)))
        (path ^ ": names") [ (0, "kept") ] names;
      Alcotest.(check int) (path ^ ": events") 2 events;
      Alcotest.(check int) (path ^ ": drops") 1 drops)
    [
      ("file salvage", file_names, file_events, file_drops);
      ("push salvage", List.rev !defs, !events, !drops);
    ]

let suite =
  [
    drivers_return_input;
    drivers_agree_on_damage;
    Alcotest.test_case "v3 pattern fixture decodes on every driver" `Quick
      pattern_fixture_decodes;
    Alcotest.test_case "footer drift: one outcome on every driver" `Quick
      footer_drift;
    Alcotest.test_case "salvage paths report one drop record" `Quick
      drop_records_agree;
    Alcotest.test_case "one trace per file or string, many per connection"
      `Quick one_trace_per_input;
    Alcotest.test_case "a dropped chunk defines no routine" `Quick
      dropped_chunk_defines_nothing;
  ]
