(* Incremental merge driver: the live-ingest sibling of
   {!Replay_driver}.  A replay owns its whole file; an ingest
   connection receives batches as they decode off a socket, so the
   driver is push-based — feed it batches, tell it when a trace ends,
   and it finishes the profiler and hands the completed trace's profile
   to [on_profile].  The next trace's profiler is created at that
   trace's first batch, so a driver whose stream has ended holds no
   profiler state at all.  An aborted trace (connection died, terminal
   decode error) discards the partial state without surfacing anything,
   the same all-or-nothing contract the replay driver keeps per file.

   Salvaged streams need the same orphaned-return filter as salvaged
   files: a dropped chunk can swallow the [Call]s whose activations a
   later chunk closes, and the orphaned [Return]s would pop an empty
   shadow stack and abort the profiler.  Per-thread call depth is
   tracked across the whole trace (it must already be correct when the
   first drop happens), and once a drop is noted every unmatched return
   is compacted out of the batch in place. *)

module Batch = Aprof_trace.Event.Batch
module Profile = Aprof_core.Profile

type profiler = Replay_driver.profiler

type instance =
  | Drms of Aprof_core.Drms_profiler.t
  | Rms of Aprof_core.Rms_profiler.t
  | Naive of Aprof_core.Naive_drms.t

type t = {
  kind : profiler;
  on_profile : profile:Profile.t -> events:int -> unit;
  mutable inst : instance option;  (* None until the trace's first batch *)
  mutable events : int;  (* events of the current (partial) trace *)
  mutable salvaging : bool;  (* a drop was noted for the current trace *)
  depth : (int, int) Hashtbl.t;  (* per-thread call depth *)
}

let fresh = function
  | `Drms -> Drms (Aprof_core.Drms_profiler.create ())
  | `Rms -> Rms (Aprof_core.Rms_profiler.create ())
  | `Naive -> Naive (Aprof_core.Naive_drms.create ())

let create ?(profiler = (`Drms : profiler)) ~on_profile () =
  {
    kind = profiler;
    on_profile;
    inst = None;
    events = 0;
    salvaging = false;
    depth = Hashtbl.create 8;
  }

(* Track per-thread call depth; once salvaging, additionally compact
   unmatched returns out of the batch (same filter as
   {!Replay_driver}'s, applied in place per batch). *)
let track_and_filter t b =
  let tags = Batch.tags b and tids = Batch.tids b in
  let args = Batch.args b and lens = Batch.lens b in
  let kept = ref 0 in
  let filtering = t.salvaging in
  for i = 0 to Batch.length b - 1 do
    let tag = Array.unsafe_get tags i in
    let tid = Array.unsafe_get tids i in
    let keep =
      if tag = Batch.tag_call then begin
        Hashtbl.replace t.depth tid
          (1 + Option.value ~default:0 (Hashtbl.find_opt t.depth tid));
        true
      end
      else if tag = Batch.tag_return then begin
        match Hashtbl.find_opt t.depth tid with
        | Some d when d > 0 ->
          Hashtbl.replace t.depth tid (d - 1);
          true
        | _ -> not filtering  (* fatal downstream unless salvaging *)
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

let current t =
  match t.inst with
  | Some i -> i
  | None ->
    let i = fresh t.kind in
    t.inst <- Some i;
    i

let on_batch t b =
  track_and_filter t b;
  t.events <- t.events + Batch.length b;
  match current t with
  | Drms p -> Aprof_core.Drms_profiler.on_batch p b
  | Rms p -> Aprof_core.Rms_profiler.on_batch p b
  | Naive p -> Batch.iter_events (Aprof_core.Naive_drms.on_event p) b

let note_drop t = t.salvaging <- true

let reset t =
  t.inst <- None;
  t.events <- 0;
  t.salvaging <- false;
  Hashtbl.reset t.depth

let trace_end t =
  let profile =
    match current t with
    | Drms p -> Aprof_core.Drms_profiler.finish p
    | Rms p -> Aprof_core.Rms_profiler.finish p
    | Naive p -> Aprof_core.Naive_drms.finish p
  in
  let events = t.events in
  reset t;
  t.on_profile ~profile ~events

let abort t = reset t
let events t = t.events
let salvaging t = t.salvaging
