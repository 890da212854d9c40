module Stream = Aprof_trace.Trace_stream
module Codec = Aprof_trace.Trace_codec
module Batch = Aprof_trace.Event.Batch
module Profile = Aprof_core.Profile

type tool_run = {
  tool_name : string;
  summary : string;
  tool_events : int;
  tool_seconds : float;
}

type file_report = {
  path : string;
  format : string;
  events : int;
  seconds : float;
  drops : Codec.drop list;
  error : string option;
  tool_runs : tool_run list;
}

type t = {
  files : file_report list;
  profile : Profile.t;
  names : (int, string) Hashtbl.t;
  events : int;
  seconds : float;
  failed : bool;
}

(* What encoding a file carries, for the reports: the text format, or
   "binary-vN".  Unreadable or headerless files report "unknown" — the
   replay itself surfaces the actual error. *)
let trace_format path =
  match
    In_channel.with_open_bin path (fun ic ->
        match Codec.detect ic with
        | `Text -> "text"
        | `Binary -> Printf.sprintf "binary-v%d" (Codec.file_version ic))
  with
  | s -> s
  | exception (Stream.Decode_error _ | Sys_error _ | End_of_file) -> "unknown"

let union_names tables =
  let out = Hashtbl.create 64 in
  List.iter (Hashtbl.iter (fun k v -> Hashtbl.replace out k v)) tables;
  out

(* A dropped chunk can swallow the [Call]s whose activations a later
   chunk closes; the orphaned [Return]s would then pop an empty shadow
   stack and abort every profiler.  Those returns belong to the regions
   the drop report already advertises, so salvage filters them out —
   compacting each batch in place.  Per-thread call depth is tracked
   from the first event (it must already be right when the first drop
   happens); returns are removed only once a drop is reported, so an
   undamaged stream passes through unchanged and an unmatched return it
   carries still fails the profiler. *)
type orphan_filter = { depth : (int, int) Hashtbl.t; mutable armed : bool }

let orphan_filter () = { depth = Hashtbl.create 8; armed = false }
let arm f = f.armed <- true
let armed f = f.armed

let filter_orphans f b =
  let tags = Batch.tags b and tids = Batch.tids b in
  let args = Batch.args b and lens = Batch.lens b in
  let kept = ref 0 in
  let filtering = f.armed in
  for i = 0 to Batch.length b - 1 do
    let tag = Array.unsafe_get tags i in
    let tid = Array.unsafe_get tids i in
    let keep =
      if tag = Batch.tag_call then begin
        Hashtbl.replace f.depth tid
          (1 + Option.value ~default:0 (Hashtbl.find_opt f.depth tid));
        true
      end
      else if tag = Batch.tag_return then begin
        match Hashtbl.find_opt f.depth tid with
        | Some d when d > 0 ->
          Hashtbl.replace f.depth tid (d - 1);
          true
        | _ -> not filtering
      end
      else true
    in
    if keep && filtering then begin
      let j = !kept in
      if j < i then begin
        Array.unsafe_set tags j tag;
        Array.unsafe_set tids j tid;
        Array.unsafe_set args j (Array.unsafe_get args i);
        Array.unsafe_set lens j (Array.unsafe_get lens i)
      end;
      incr kept
    end
  done;
  if filtering then Batch.unsafe_set_length b !kept

(* Per-file source selection.  [drops] collects what salvage skipped;
   in [`Fail] mode it stays empty and the first malformation raises. *)
let open_batches ~keep_going ~drops path ic =
  match Codec.detect ic with
  | `Binary ->
    if keep_going then (
      (* A drop is reported before the next surviving batch. *)
      let orphans = orphan_filter () in
      let names, batches =
        Codec.read ~path
          ~on_corrupt:
            (`Skip
              (fun d ->
                drops := d :: !drops;
                arm orphans))
          ic
      in
      ( names,
        fun () ->
          match batches () with
          | Some b as batch ->
            filter_orphans orphans b;
            batch
          | None -> None ))
    else Codec.read ~path ~on_corrupt:`Fail ic
  | `Text ->
    (Hashtbl.create 1, Stream.of_text_channel ic)

(* Sharding needs the chunk index: binary traces with an ATRI footer
   only, and never under salvage ([--keep-going] replays the salvaged
   sequential stream).  Text traces and index-less files return [None]
   here and take the sequential path. *)
let shards_of ~jobs ~keep_going path =
  if jobs > 1 && not keep_going then Tool.Shards.of_file path else None

(* One trace file through [M]: sharded over the chunk index when
   [shards] is given ({!Tool.replay_parallel}), else one fresh instance
   fed the file's (possibly salvaged) stream.  Returns the instance and
   the events it was fed. *)
let replay_file (type a) ~pool ~jobs ~keep_going ~drops ~shards path
    (module M : Tool.S with type state = a) =
  match shards with
  | Some shards -> Tool.replay_parallel ~pool ~jobs ~shards (module M)
  | None ->
    In_channel.with_open_bin path (fun ic ->
        let names, batches = open_batches ~keep_going ~drops path ic in
        let st = M.create () in
        let n = Stream.drain batches (M.on_batch st) in
        (st, n, names))

(* Everything a tool prints is buffered here and only surfaced once the
   file has replayed completely: a decode error halfway through must not
   leave a half-report on stdout that looks like a full one. *)
let run_tools ~now ~pool ~jobs ~keep_going path =
  (* The chunk index is probed once per file; every tool reuses it (each
     opens its own read sessions). *)
  let shards = shards_of ~jobs ~keep_going path in
  List.map
    (fun (module M : Tool.S) ->
      (* Drops were already reported by the profile pass over the same
         bytes; discard the duplicates. *)
      let t0 = now () in
      let st, n, _names =
        replay_file ~pool ~jobs ~keep_going ~drops:(ref []) ~shards path
          (module M)
      in
      {
        tool_name = M.name;
        summary = M.summary st;
        tool_events = n;
        tool_seconds = now () -. t0;
      })
    Harness.tools

let replay ?(jobs = 1)
    ?(profiler = (module Aprof_adapters.Drms : Tool.Profiler))
    ?(with_tools = false) ?(keep_going = false) ~now paths =
  let (module P) = profiler in
  if jobs < 1 then invalid_arg "Replay_driver.replay: jobs < 1";
  let pool = Aprof_util.Par.create ~jobs () in
  let t0 = now () in
  (* Phase 1: one profiler instance per file.  Failures are contained to
     the file that raised: its partial state is discarded, every other
     file still replays, and the error travels in the report. *)
  let profile_file path =
    let fstart = now () in
    let format = trace_format path in
    let drops = ref [] in
    match
      let shards =
        if List.compare_length_with paths 1 = 0 then
          shards_of ~jobs ~keep_going path
        else None
      in
      let p, n, names =
        replay_file ~pool ~jobs ~keep_going ~drops ~shards path (module P)
      in
      (n, P.finish p, names)
    with
    | n, profile, names ->
      ( {
          path;
          format;
          events = n;
          seconds = now () -. fstart;
          drops = List.rev !drops;
          error = None;
          tool_runs = [];
        },
        Some (profile, names) )
    | exception (Stream.Decode_error msg | Sys_error msg | Invalid_argument msg)
      ->
      ( {
          path;
          format;
          events = 0;
          seconds = now () -. fstart;
          drops = List.rev !drops;
          error = Some msg;
          tool_runs = [];
        },
        None )
  in
  let files = Array.of_list paths in
  let out = Array.map (fun path () -> profile_file path) files in
  let results = Array.make (Array.length files) None in
  (match files with
  | [| path |] -> results.(0) <- Some (profile_file path)
  | _ ->
    (* Several traces: one worker per file, merge the profiles. *)
    Aprof_util.Par.run pool
      (Array.mapi (fun i task () -> results.(i) <- Some (task ())) out));
  let results = Array.map Option.get results in
  (* Phase 2: tools, sequentially per file, skipping files whose profile
     pass already failed (the same bytes would fail again). *)
  let results =
    if not with_tools then results
    else
      Array.map
        (fun (report, payload) ->
          match payload with
          | None -> (report, payload)
          | Some _ -> (
            match run_tools ~now ~pool ~jobs ~keep_going report.path with
            | tool_runs -> ({ report with tool_runs }, payload)
            | exception
                (Stream.Decode_error msg | Sys_error msg | Invalid_argument msg)
              ->
              ({ report with error = Some msg; tool_runs = [] }, None)))
        results
  in
  let merged = Profile.create () in
  let tables = ref [] in
  let events = ref 0 in
  Array.iter
    (fun ((report : file_report), payload) ->
      match payload with
      | None -> ()
      | Some (profile, names) ->
        Profile.merge_into ~into:merged profile;
        tables := names :: !tables;
        events := !events + report.events)
    results;
  let reports = Array.to_list (Array.map fst results) in
  {
    files = reports;
    profile = merged;
    names = union_names (List.rev !tables);
    events = !events;
    seconds = now () -. t0;
    failed = List.exists (fun r -> r.error <> None) reports;
  }
