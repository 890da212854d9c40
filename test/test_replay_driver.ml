(* Failure isolation and output buffering in the replay driver.

   The two regressions pinned here: (1) one corrupt file in a multi-file
   replay must not abort the other files — it is reported, everything
   else replays, and the run is marked failed; (2) a decode error
   surfacing mid-file must not leak a partial tool summary — the driver
   buffers everything per file and returns nothing for a file that
   failed. *)

module Event = Aprof_trace.Event
module Stream = Aprof_trace.Trace_stream
module Codec = Aprof_trace.Trace_codec
module Driver = Aprof_tools.Replay_driver
module Trace = Aprof_trace.Trace
module Profile_io = Aprof_core.Profile_io

let now = Sys.time

(* A well-formed trace: balanced activations over two threads, with
   reads so the profile has input sizes. *)
let mk_trace n =
  let v = Trace.create () in
  for i = 0 to n - 1 do
    let tid = i mod 2 in
    Trace.push v (Event.Call { tid; routine = i mod 4 });
    Trace.push v (Event.Read { tid; addr = i * 7 });
    Trace.push v (Event.Write { tid; addr = (i * 7) + 1 });
    Trace.push v (Event.Return { tid })
  done;
  v

let write_trace trace file =
  Out_channel.with_open_bin file (fun oc ->
      let sink = Codec.batch_writer ~chunk_bytes:128 oc in
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

(* Flip one byte inside chunk [k]'s payload (counted from the end when
   negative). *)
let corrupt_chunk file k =
  let shs =
    In_channel.with_open_bin file (fun ic ->
        Option.get (Codec.shards ~path:file ic))
  in
  let k = if k < 0 then Array.length shs + k else k in
  let sh = shs.(k) in
  let i = sh.Codec.offset + (sh.Codec.bytes / 2) in
  let bytes = In_channel.with_open_bin file In_channel.input_all in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc
        (String.mapi
           (fun j c -> if j = i then Char.chr (Char.code c lxor 0x10) else c)
           bytes));
  sh.Codec.events

let with_files n f =
  let files = List.init n (fun _ -> Filename.temp_file "aprof_rd" ".atrc") in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove files) (fun () -> f files)

let report_for (result : Driver.t) path =
  List.find (fun (r : Driver.file_report) -> r.path = path) result.files

let two_files_one_corrupt () =
  with_files 2 (fun files ->
      let good, bad = match files with [ a; b ] -> (a, b) | _ -> assert false in
      let trace = mk_trace 300 in
      write_trace trace good;
      write_trace trace bad;
      ignore (corrupt_chunk bad 1);
      (* Corrupt file first: the failure must not take the rest down. *)
      let result = Driver.replay ~now [ bad; good ] in
      Alcotest.(check bool) "run marked failed" true result.failed;
      let rb = report_for result bad and rg = report_for result good in
      Alcotest.(check bool) "corrupt file reports its error" true
        (match rb.error with Some _ -> true | None -> false);
      Alcotest.(check int) "corrupt file contributed nothing" 0 rb.events;
      Alcotest.(check (option string)) "good file has no error" None rg.error;
      Alcotest.(check int) "good file fully replayed" (Trace.length trace)
        rg.events;
      (* The merged profile is exactly the good file's. *)
      let solo = Driver.replay ~now [ good ] in
      Alcotest.(check string) "profile = good file alone"
        (Aprof_core.Profile_io.render_report
           ~routine_name:string_of_int solo.profile)
        (Aprof_core.Profile_io.render_report
           ~routine_name:string_of_int result.profile))

let corrupt_tail_buffers_summaries () =
  with_files 1 (fun files ->
      let file = List.hd files in
      let trace = mk_trace 300 in
      write_trace trace file;
      (* Pristine file first: every tool returns a buffered summary. *)
      let ok = Driver.replay ~now ~with_tools:true [ file ] in
      let n_tools =
        List.length (report_for ok file).Driver.tool_runs
      in
      Alcotest.(check bool) "tools ran on the pristine file" true (n_tools > 0);
      List.iter
        (fun (t : Driver.tool_run) ->
          Alcotest.(check bool)
            (t.tool_name ^ " summary buffered, not printed")
            true
            (String.length t.summary > 0))
        (report_for ok file).Driver.tool_runs;
      (* Corrupt the tail: the file decodes for a while and then fails —
         no tool summary may surface, not even a partial one. *)
      ignore (corrupt_chunk file (-1));
      let result = Driver.replay ~now ~with_tools:true [ file ] in
      let r = report_for result file in
      Alcotest.(check bool) "tail corruption detected" true result.failed;
      Alcotest.(check (list string)) "no tool summaries for the failed file"
        []
        (List.map (fun (t : Driver.tool_run) -> t.tool_name) r.tool_runs);
      Alcotest.(check int) "failed file contributed no events" 0 r.events)

let keep_going_salvages () =
  with_files 1 (fun files ->
      let file = List.hd files in
      let trace = mk_trace 300 in
      write_trace trace file;
      let dropped = corrupt_chunk file 1 in
      let result =
        Driver.replay ~now ~keep_going:true ~with_tools:true [ file ]
      in
      let r = report_for result file in
      Alcotest.(check bool) "salvage succeeds" false result.failed;
      Alcotest.(check (option string)) "no error" None r.error;
      (match r.drops with
      | [ d ] ->
        Alcotest.(check int) "drop advertises the chunk" 1 d.Codec.drop_chunk;
        Alcotest.(check int) "drop advertises the event count" dropped
          d.Codec.drop_events
      | ds -> Alcotest.failf "expected one drop, got %d" (List.length ds));
      Alcotest.(check int) "salvaged events + dropped events = total"
        (Trace.length trace) (r.events + dropped);
      Alcotest.(check bool) "tools still ran on the salvaged stream" true
        (r.tool_runs <> []))

(* Salvage filters a return only when a drop could have swallowed its
   call: an undamaged file whose stream carries an unmatched return
   fails the same way with and without [~keep_going] — a clean per-file
   error, never an exception out of the driver. *)
let unmatched_return_without_drop () =
  with_files 1 (fun files ->
      let file = List.hd files in
      let trace = mk_trace 20 in
      Trace.push trace (Event.Return { tid = 0 });
      write_trace trace file;
      List.iter
        (fun keep_going ->
          let result = Driver.replay ~now ~keep_going [ file ] in
          let r = report_for result file in
          Alcotest.(check bool)
            (Printf.sprintf "keep_going=%b: the file fails" keep_going)
            true result.failed;
          Alcotest.(check bool) "the error names the return" true
            (match r.error with
            | Some e -> Test_codec.contains ~sub:"return" e
            | None -> false);
          Alcotest.(check int) "nothing was dropped" 0 (List.length r.drops))
        [ false; true ])

(* A dropped chunk that held an activation's [Call] orphans the
   [Return] a later chunk carries: salvage removes it, so the rest of
   the file still replays. *)
let keep_going_drops_orphaned_returns () =
  with_files 1 (fun files ->
      let file = List.hd files in
      let trace = Trace.create () in
      Trace.push trace (Event.Call { tid = 0; routine = 0 });
      for i = 0 to 199 do
        Trace.push trace (Event.Read { tid = 0; addr = 8 * i })
      done;
      Trace.push trace (Event.Return { tid = 0 });
      Trace.iter (Trace.push trace) (mk_trace 20);
      write_trace trace file;
      ignore (corrupt_chunk file 0);
      let result = Driver.replay ~now ~keep_going:true [ file ] in
      let r = report_for result file in
      Alcotest.(check (option string)) "salvage succeeds" None r.error;
      Alcotest.(check int) "one drop" 1 (List.length r.drops))

(* Every registry profiler through the driver, sequentially and sharded
   over the chunk index: the replayed profile must dump exactly as the
   profiler's own, fed the trace directly.  The trace is a small
   three-thread mysqlslap run, so kernel fills, frees and cross-thread
   reads all reach the shards' broadcast paths. *)
let every_profiler_matches_direct () =
  let spec =
    match Aprof_workloads.Registry.find "mysqlslap" with
    | Some s -> s
    | None -> Alcotest.fail "mysqlslap missing"
  in
  let trace =
    (Aprof_workloads.Workload.run_spec spec ~threads:3 ~scale:30 ~seed:11)
      .Aprof_vm.Interp.trace
  in
  with_files 1 (fun files ->
      let file = List.hd files in
      write_trace trace file;
      List.iter
        (fun (name, (module P : Aprof_tools.Tool.Profiler)) ->
          let p = P.create () in
          Trace.replay trace (P.on_batch p);
          let direct = Profile_io.to_string (P.finish p) in
          List.iter
            (fun jobs ->
              let r = Driver.replay ~jobs ~profiler:(module P) ~now [ file ] in
              Alcotest.(check (option string))
                (Printf.sprintf "%s -j %d: no error" name jobs)
                None (report_for r file).error;
              Alcotest.(check string)
                (Printf.sprintf "%s -j %d = direct" name jobs)
                direct
                (Profile_io.to_string r.profile))
            [ 1; 2 ])
        Aprof_tools.Harness.profilers)

let suite =
  [
    Alcotest.test_case "two files, one corrupt: isolation" `Quick
      two_files_one_corrupt;
    Alcotest.test_case "corrupt tail: summaries stay buffered" `Quick
      corrupt_tail_buffers_summaries;
    Alcotest.test_case "--keep-going salvages with accurate drops" `Quick
      keep_going_salvages;
    Alcotest.test_case "unmatched return without a drop fails either way"
      `Quick unmatched_return_without_drop;
    Alcotest.test_case "--keep-going removes returns orphaned by a drop"
      `Quick keep_going_drops_orphaned_returns;
    Alcotest.test_case "every profiler at -j 1 and -j 2 = direct profile"
      `Quick every_profiler_matches_direct;
  ]
