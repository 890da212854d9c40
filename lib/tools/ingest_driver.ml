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

   Salvaged streams go through the same orphaned-return filter as
   salvaged files ({!Replay_driver.filter_orphans}), one per trace,
   armed by the first drop noted on it. *)

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
  mutable orphans : Replay_driver.orphan_filter;  (* the current trace's *)
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
    orphans = Replay_driver.orphan_filter ();
  }

let current t =
  match t.inst with
  | Some i -> i
  | None ->
    let i = fresh t.kind in
    t.inst <- Some i;
    i

let on_batch t b =
  Replay_driver.filter_orphans t.orphans b;
  t.events <- t.events + Batch.length b;
  match current t with
  | Drms p -> Aprof_core.Drms_profiler.on_batch p b
  | Rms p -> Aprof_core.Rms_profiler.on_batch p b
  | Naive p -> Batch.iter_events (Aprof_core.Naive_drms.on_event p) b

let note_drop t = Replay_driver.arm t.orphans

let reset t =
  t.inst <- None;
  t.events <- 0;
  t.orphans <- Replay_driver.orphan_filter ()

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
let salvaging t = Replay_driver.armed t.orphans
