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

   Profilers come from a {!pool}, built for the daemon's one profiler
   and shared by every driver of the daemon: a profiler given back is
   reset in place and kept for the next trace of any driver sharing the
   pool, so a stream costs its decode and profile work rather than a
   fresh set of shadow pages.

   Salvaged streams go through the same orphaned-return filter as
   salvaged files ({!Replay_driver.filter_orphans}), one per trace,
   armed by the first drop noted on it.  A strict stream can never drop,
   so it gets no filter. *)

module Batch = Aprof_trace.Event.Batch
module Profile = Aprof_core.Profile
module Pool = Aprof_util.Pool

(* The pool's profiler and its idle instances. *)
type 'a pooled = {
  profiler : (module Tool.Profiler with type state = 'a);
  idle : 'a Pool.t;
}

type pool = Pooled : 'a pooled -> pool

(* What a pool may retain: [pool_idle] idle profilers, each with at most
   [pool_words] words of shadow memory (256 leaves of 1,024 words,
   2 MiB).  A profiler a larger trace grew is released instead, so one
   huge trace makes neither the pool nor every later reset expensive. *)
let pool_idle = 8
let pool_words = 1 lsl 18

let pool (module P : Tool.Profiler) =
  Pooled { profiler = (module P); idle = Pool.create ~max_idle:pool_idle }

type 'a driver = {
  pool : 'a pooled;
  salvage : bool;
  on_profile : profile:Profile.t -> events:int -> unit;
  mutable inst : 'a option;  (* None until the trace's first batch *)
  mutable events : int;  (* events of the current (partial) trace *)
  mutable orphans : Replay_driver.orphan_filter option;  (* salvage only *)
}

type t = Driver : 'a driver -> t

let orphans_for salvage =
  if salvage then Some (Replay_driver.orphan_filter ()) else None

let create ?(salvage = false) ~pool:(Pooled pool) ~on_profile () =
  Driver
    {
      pool;
      salvage;
      on_profile;
      inst = None;
      events = 0;
      orphans = orphans_for salvage;
    }

let give_back (type a) (d : a driver) (p : a) =
  let (module P) = d.pool.profiler in
  let idle = d.pool.idle in
  if (not (Pool.full idle)) && P.space_words p <= pool_words then begin
    P.reset p;
    Pool.give idle p
  end

let current (type a) (d : a driver) : a =
  match d.inst with
  | Some p -> p
  | None ->
    let (module P) = d.pool.profiler in
    let p =
      match Pool.take d.pool.idle with Some p -> p | None -> P.create ()
    in
    d.inst <- Some p;
    p

let on_batch (Driver d) b =
  (match d.orphans with
  | Some f -> Replay_driver.filter_orphans f b
  | None -> ());
  d.events <- d.events + Batch.length b;
  let (module P) = d.pool.profiler in
  P.on_batch (current d) b

let note_drop (Driver d) =
  match d.orphans with
  | Some f -> Replay_driver.arm f
  | None -> invalid_arg "Ingest_driver.note_drop: driver is not salvaging"

let reset d =
  d.inst <- None;
  d.events <- 0;
  d.orphans <- orphans_for d.salvage

let trace_end (Driver d) =
  let p = current d in
  let (module P) = d.pool.profiler in
  let profile = P.finish p in
  let events = d.events in
  reset d;
  d.on_profile ~profile ~events;
  give_back d p

let abort (Driver d) =
  Option.iter (give_back d) d.inst;
  reset d

let events (Driver d) = d.events

let salvaging (Driver d) =
  match d.orphans with Some f -> Replay_driver.armed f | None -> false
