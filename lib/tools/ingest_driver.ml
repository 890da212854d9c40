(* Incremental merge driver: the live-ingest sibling of
   {!Replay_driver}.  A replay owns its whole file; an ingest
   connection receives batches as they decode off a socket, so the
   driver is push-based — feed it batches, tell it when a trace ends,
   and it finishes the profiler and hands the completed trace's profile
   to [on_profile].  A trace's profiler is taken at its first batch and
   given back at its end, so a driver whose stream has ended holds no
   profiler state at all.  An aborted trace (connection died, terminal
   decode error) discards the partial state without surfacing anything,
   the same all-or-nothing contract the replay driver keeps per file.

   Profilers come from a {!pool}, shared by every driver of a daemon: a
   drms or rms profiler given back is reset in place and kept for the
   next trace of any driver sharing the pool, so a stream costs its
   decode and profile work rather than a fresh set of shadow pages.  The
   naive oracle is never pooled.

   Salvaged streams go through the same orphaned-return filter as
   salvaged files ({!Replay_driver.filter_orphans}), one per trace,
   armed by the first drop noted on it.  A strict stream can never drop,
   so it gets no filter. *)

module Batch = Aprof_trace.Event.Batch
module Profile = Aprof_core.Profile
module Drms = Aprof_core.Drms_profiler
module Rms = Aprof_core.Rms_profiler
module Pool = Aprof_util.Pool

type profiler = Replay_driver.profiler

type instance = Drms of Drms.t | Rms of Rms.t | Naive of Aprof_core.Naive_drms.t

type pool = { drms : Drms.t Pool.t; rms : Rms.t Pool.t }

(* What a pool may retain: [pool_idle] idle profilers per kind, each
   with at most [pool_words] words of shadow memory (256 leaves of 1,024
   words, 2 MiB).  A profiler a larger trace grew is released instead,
   so one huge trace makes neither the pool nor every later reset
   expensive. *)
let pool_idle = 8
let pool_words = 1 lsl 18

let pool () =
  {
    drms = Pool.create ~max_idle:pool_idle;
    rms = Pool.create ~max_idle:pool_idle;
  }

type t = {
  kind : profiler;
  pool : pool;
  salvage : bool;
  on_profile : profile:Profile.t -> events:int -> unit;
  mutable inst : instance option;  (* None until the trace's first batch *)
  mutable events : int;  (* events of the current (partial) trace *)
  mutable orphans : Replay_driver.orphan_filter option;  (* salvage only *)
}

let orphans_for salvage =
  if salvage then Some (Replay_driver.orphan_filter ()) else None

let create ?(profiler = (`Drms : profiler)) ?(salvage = false) ~pool
    ~on_profile () =
  {
    kind = profiler;
    pool;
    salvage;
    on_profile;
    inst = None;
    events = 0;
    orphans = orphans_for salvage;
  }

let take t =
  match t.kind with
  | `Drms -> (
    match Pool.take t.pool.drms with
    | Some x -> Drms x
    | None -> Drms (Drms.create ()))
  | `Rms -> (
    match Pool.take t.pool.rms with
    | Some x -> Rms x
    | None -> Rms (Rms.create ()))
  | `Naive -> Naive (Aprof_core.Naive_drms.create ())

let give_back t inst =
  let p = t.pool in
  match inst with
  | Drms x when (not (Pool.full p.drms)) && Drms.space_words x <= pool_words ->
    Drms.reset x;
    Pool.give p.drms x
  | Rms x when (not (Pool.full p.rms)) && Rms.space_words x <= pool_words ->
    Rms.reset x;
    Pool.give p.rms x
  | Drms _ | Rms _ | Naive _ -> ()

let current t =
  match t.inst with
  | Some i -> i
  | None ->
    let i = take t in
    t.inst <- Some i;
    i

let on_batch t b =
  (match t.orphans with
  | Some f -> Replay_driver.filter_orphans f b
  | None -> ());
  t.events <- t.events + Batch.length b;
  match current t with
  | Drms p -> Drms.on_batch p b
  | Rms p -> Rms.on_batch p b
  | Naive p -> Batch.iter_events (Aprof_core.Naive_drms.on_event p) b

let note_drop t =
  match t.orphans with
  | Some f -> Replay_driver.arm f
  | None -> invalid_arg "Ingest_driver.note_drop: driver is not salvaging"

let reset t =
  t.inst <- None;
  t.events <- 0;
  t.orphans <- orphans_for t.salvage

let trace_end t =
  let inst = current t in
  let profile =
    match inst with
    | Drms p -> Drms.finish p
    | Rms p -> Rms.finish p
    | Naive p -> Aprof_core.Naive_drms.finish p
  in
  let events = t.events in
  reset t;
  t.on_profile ~profile ~events;
  give_back t inst

let abort t =
  Option.iter (give_back t) t.inst;
  reset t

let events t = t.events

let salvaging t =
  match t.orphans with Some f -> Replay_driver.armed f | None -> false
