(* The aprof ingest daemon.

   Thread/domain layout:

   - one accept systhread per listener (Unix and/or TCP);
   - one front systhread per connection: it routes on the first four
     bytes ("ATRC" -> ingest stream, anything else -> one-line control
     command) and, for ingest, becomes the connection's reader loop —
     [read] into a recycled slice, [Inbox.push] (the backpressure
     point), mark the connection runnable;
   - a pool of ingest workers (domains on OCaml 5, systhreads on 4.x
     via [Serve_backend]): each claims a runnable connection, drains
     its inbox through [Trace_net.feed] -> [Ingest_driver], and at each
     completed trace folds the profile into the one accumulator;
   - one snapshot systhread polling the timer / SIGHUP-style requests.

   Ownership: a worker owns one decode scratch ([Trace_net.scratch]),
   created when it starts and lent to every feed it runs.  The daemon
   owns one pool of read slices ([Inbox.pool]) and one of reset
   profilers ([Ingest_driver.pool]), both filled only as connections
   give back what they used.  A connection owns its parse state, its
   queued slices, the slices of an unfinished item and, while a trace
   is open, one profiler.

   Scheduling: a connection is in the run queue at most once
   (Idle/Queued/Running/Running_dirty), so exactly one worker ever
   touches a connection's decoder and driver — they need no locks of
   their own.  A reader that outruns its worker blocks in [Inbox.push];
   the kernel socket buffer and then the peer absorb the pressure, so
   per-connection memory stays bounded no matter how slow aggregation
   is.

   Failure isolation: a decode error poisons only its own connection —
   the worker aborts the partial trace (never folded), the connection
   is killed, and every other stream is untouched.  With [salvage] the
   per-chunk drop trichotomy of the file reader applies on the wire
   instead. *)

module Trace_net = Aprof_trace.Trace_net
module Trace_stream = Aprof_trace.Trace_stream
module Ingest_driver = Aprof_tools.Ingest_driver
module Profile = Aprof_core.Profile
module Profile_io = Aprof_core.Profile_io

let now () = Unix.gettimeofday ()

type config = {
  unix_path : string option;  (* Unix-domain listener path *)
  tcp : (string * int) option;  (* TCP listener (host, port; 0 = any) *)
  profiler : (module Aprof_tools.Tool.Profiler);
  jobs : int;  (* ingest workers *)
  snapshot_every : float;  (* seconds; 0 = only on request *)
  snapshot_profile : string option;  (* profile CSV written per snapshot *)
  fleet_csv : string option;  (* fleet CSV written per snapshot *)
  max_frame_bytes : int;
  inbox_bytes : int;  (* per-connection queued-byte bound *)
  read_bytes : int;  (* read slice size *)
  idle_timeout : float;  (* seconds without bytes kills a conn; 0 = off *)
  salvage : bool;
  log : string -> unit;
}

let default_config =
  {
    unix_path = None;
    tcp = None;
    profiler = (module Aprof_tools.Aprof_adapters.Drms);
    jobs = max 1 (Serve_backend.cpu_count () - 1);
    snapshot_every = 0.;
    snapshot_profile = None;
    fleet_csv = None;
    max_frame_bytes = 1 lsl 26;
    inbox_bytes = 256 * 1024;
    read_bytes = 64 * 1024;
    idle_timeout = 0.;
    salvage = false;
    log = ignore;
  }

type conn_state = Idle | Queued | Running | Running_dirty

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_peer : string;
  c_inbox : Inbox.t;
  mutable c_state : conn_state;  (* sched_m *)
  mutable c_net : Trace_net.t option;  (* worker-private after setup *)
  mutable c_driver : Ingest_driver.t option;  (* worker-private *)
  c_started : float;
  (* Counters below are under stats_m. *)
  mutable c_events : int;  (* events of completed (folded) traces *)
  mutable c_traces : int;
  mutable c_drops : int;
  mutable c_bytes : int;
  mutable c_finished : float;  (* 0. while live *)
  mutable c_error : string option;
  mutable c_done : bool;  (* finished (cleanly or not), live-- happened *)
  mutable c_reader_done : bool;  (* reader thread exited its loop *)
  mutable c_fd_closed : bool;
}

type t = {
  cfg : config;
  acc : Shard_acc.t;
  slices : Inbox.pool;  (* every connection's read slices *)
  profilers : Ingest_driver.pool;  (* reset profilers between traces *)
  started : float;
  (* Scheduler state, under sched_m. *)
  sched_m : Mutex.t;
  sched_c : Condition.t;
  runq : conn Queue.t;
  mutable live : int;
  mutable stop_requested : bool;
  mutable workers_stop : bool;
  mutable snap_stop : bool;
  mutable stop_running : bool;  (* one thread owns the stop sequence *)
  mutable stopped : bool;
  mutable snapshot_requested : bool;
  (* Bookkeeping, under stats_m. *)
  stats_m : Mutex.t;
  mutable conns : conn list;  (* every ingest conn ever, newest first *)
  fronts : (Unix.file_descr, unit) Hashtbl.t;
      (* peers not routed yet or on a control line: not in [conns] *)
  mutable fronts_shut : bool;  (* the stop sequence shut [fronts] down *)
  mutable next_id : int;
  mutable threads : Thread.t list;  (* accept + front/reader + snapshot *)
  mutable workers : Serve_backend.handle list;
  mutable listeners : (Unix.file_descr * string) list;
}

(* See server.mli: a finished connection's counters and bookkeeping
   measure about 60 words. *)
let finished_conn_words = 1024

(* Idle read slices the daemon keeps for its next readers. *)
let idle_slice_bytes = 4 * 1024 * 1024

type stats = {
  s_live : int;
  s_conns : int;
  s_traces : int;
  s_events : int;
  s_drops : int;
  s_folds : int;
}

(* ------------------------------------------------------------------ *)
(* Small helpers *)

let string_of_sockaddr = function
  | Unix.ADDR_UNIX p -> "unix:" ^ p
  | Unix.ADDR_INET (a, p) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | 0 -> ()
      | k -> go (off + k)
  in
  try go 0 with Unix.Unix_error _ -> ()

(* tmp + rename so snapshot consumers never observe a half file *)
let write_atomic path f =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> f oc);
  Sys.rename tmp path

let add_thread t th =
  Mutex.lock t.stats_m;
  t.threads <- th :: t.threads;
  Mutex.unlock t.stats_m

(* ------------------------------------------------------------------ *)
(* Connection lifecycle *)

let shutdown_fd t c =
  Mutex.lock t.stats_m;
  if not c.c_fd_closed then
    (try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Mutex.unlock t.stats_m

(* Only the reader thread closes the fd, and only through here, so a
   concurrent [shutdown_fd] can never hit a closed (possibly reused)
   descriptor. *)
let close_fd t c =
  Mutex.lock t.stats_m;
  if not c.c_fd_closed then begin
    c.c_fd_closed <- true;
    (try Unix.close c.c_fd with Unix.Unix_error _ -> ())
  end;
  Mutex.unlock t.stats_m

(* Terminal transition of a connection; idempotent, callable from the
   reader (idle timeout), a worker (EOF or decode error) or the stop
   sequence (forced shutdown).  Never touches the decoder or driver —
   those stay worker-private. *)
let finish t ?error c =
  Mutex.lock t.stats_m;
  let first = not c.c_done in
  if first then begin
    c.c_done <- true;
    c.c_finished <- now ();
    (match error with Some e when c.c_error = None -> c.c_error <- Some e | _ -> ())
  end;
  Mutex.unlock t.stats_m;
  if first then begin
    (match error with
    | Some e -> t.cfg.log (Printf.sprintf "conn %d (%s): %s" c.c_id c.c_peer e)
    | None -> ());
    Inbox.close c.c_inbox;
    shutdown_fd t c;
    Mutex.lock t.sched_m;
    t.live <- t.live - 1;
    Condition.broadcast t.sched_c;
    Mutex.unlock t.sched_m
  end

let conn_error t c =
  Mutex.lock t.stats_m;
  let e = c.c_error in
  Mutex.unlock t.stats_m;
  e

let mark_runnable t c =
  Mutex.lock t.sched_m;
  (match c.c_state with
  | Idle ->
    c.c_state <- Queued;
    Queue.push c t.runq;
    Condition.broadcast t.sched_c
  | Running -> c.c_state <- Running_dirty
  | Queued | Running_dirty -> ());
  Mutex.unlock t.sched_m

let make_conn t fd peer =
  Mutex.lock t.stats_m;
  let id = t.next_id in
  t.next_id <- id + 1;
  Mutex.unlock t.stats_m;
  let c =
    {
      c_id = id;
      c_fd = fd;
      c_peer = peer;
      c_inbox = Inbox.create ~capacity:t.cfg.inbox_bytes t.slices;
      c_state = Idle;
      c_net = None;
      c_driver = None;
      c_started = now ();
      c_events = 0;
      c_traces = 0;
      c_drops = 0;
      c_bytes = 0;
      c_finished = 0.;
      c_error = None;
      c_done = false;
      c_reader_done = false;
      c_fd_closed = false;
    }
  in
  let driver =
    Ingest_driver.create ~salvage:t.cfg.salvage ~pool:t.profilers
      ~on_profile:(fun ~profile ~events ->
        Shard_acc.fold t.acc profile;
        Mutex.lock t.stats_m;
        c.c_traces <- c.c_traces + 1;
        c.c_events <- c.c_events + events;
        Mutex.unlock t.stats_m)
      ()
  in
  let cb =
    {
      Trace_net.on_batch = (fun b -> Ingest_driver.on_batch driver b);
      on_define = (fun rid name -> Shard_acc.define t.acc rid name);
      on_trace_end = (fun () -> Ingest_driver.trace_end driver);
      on_drop =
        (fun d ->
          Ingest_driver.note_drop driver;
          Mutex.lock t.stats_m;
          c.c_drops <- c.c_drops + 1;
          Mutex.unlock t.stats_m;
          let open Aprof_trace.Trace_codec in
          t.cfg.log
            (if d.drop_bytes < 0 then
               Printf.sprintf
                 "conn %d (%s): dropped the rest from chunk %d at byte %d: %s"
                 c.c_id c.c_peer d.drop_chunk d.drop_offset d.drop_reason
             else
               Printf.sprintf
                 "conn %d (%s): dropped chunk %d at byte %d (%d bytes): %s"
                 c.c_id c.c_peer d.drop_chunk d.drop_offset d.drop_bytes
                 d.drop_reason));
    }
  in
  c.c_driver <- Some driver;
  c.c_net <-
    Some
      (Trace_net.create ~salvage:t.cfg.salvage
         ~max_frame_bytes:t.cfg.max_frame_bytes
         ~release:(Inbox.recycle c.c_inbox) cb);
  Mutex.lock t.stats_m;
  t.conns <- c :: t.conns;
  Mutex.unlock t.stats_m;
  Mutex.lock t.sched_m;
  t.live <- t.live + 1;
  Mutex.unlock t.sched_m;
  c

(* ------------------------------------------------------------------ *)
(* Ingest workers *)

(* A finished connection keeps only the counters STATS and the fleet
   CSV read: its decoder (parse state) and its driver go, a partial
   trace's profiler back to the pool — [finish] already gave the queued
   slices back.  Worker-side only, like every use of the two. *)
let release c =
  Option.iter Ingest_driver.abort c.c_driver;
  c.c_net <- None;
  c.c_driver <- None

(* Feed everything queued to the connection's decoder, on the worker's
   scratch; the decoder gives each slice back to the pool once no
   unfinished item needs it.  Exactly one worker runs this for a given
   connection at a time (scheduler invariant), so the decoder and driver
   need no locking.  A connection re-queued after its state was released
   has nothing left to do. *)
let drain t scratch c =
  match (c.c_net, c.c_driver) with
  | None, _ | _, None -> ()
  | Some net, Some driver ->
    let continue = ref true in
    while !continue do
      match Inbox.pop c.c_inbox with
      | None -> continue := false
      | Some Inbox.Eof ->
        continue := false;
        (if conn_error t c = None then begin
           match Trace_net.close net with
           | () -> finish t c
           | exception Trace_stream.Decode_error msg ->
             Ingest_driver.abort driver;
             finish t ~error:msg c
         end
         else finish t c);
        (* An Eof item means the reader saw read = 0 and will never touch
           the socket again, so closing here is safe — and it is what
           turns the peer's pending read into EOF: a client that waits
           for EOF after shutdown knows its whole stream was decoded and
           folded, and its connection's state released. *)
        release c;
        close_fd t c
      | Some (Inbox.Data (b, n)) ->
        if conn_error t c = None then begin
          Mutex.lock t.stats_m;
          c.c_bytes <- c.c_bytes + n;
          Mutex.unlock t.stats_m;
          match Trace_net.feed net scratch b ~pos:0 ~len:n with
          | () -> ()
          | exception Trace_stream.Decode_error msg ->
            continue := false;
            Ingest_driver.abort driver;
            finish t ~error:msg c;
            (* If the reader already exited (its Eof was just cleared by
               [finish]'s inbox close), the fd is ours to release; if it
               is still in its loop, it will observe [c_done] on waking
               and close on its side. *)
            Mutex.lock t.stats_m;
            let reader_done = c.c_reader_done in
            Mutex.unlock t.stats_m;
            if reader_done then close_fd t c
        end
        else Inbox.recycle c.c_inbox b
    done

(* Every [finish] is followed by a drain of its connection: [drain]'s
   own Eof and error paths run on it, the reader marks it runnable after
   each of its own, and the stop sequence's forced [finish] wakes the
   reader.  So checking after each drain releases every finished
   connection. *)
let release_if_done t c =
  Mutex.lock t.stats_m;
  let finished = c.c_done in
  Mutex.unlock t.stats_m;
  if finished then release c

let worker_loop t () =
  let scratch = Trace_net.scratch () in
  let rec next () =
    Mutex.lock t.sched_m;
    while Queue.is_empty t.runq && not t.workers_stop do
      Condition.wait t.sched_c t.sched_m
    done;
    if Queue.is_empty t.runq then Mutex.unlock t.sched_m
    else begin
      let c = Queue.pop t.runq in
      c.c_state <- Running;
      Mutex.unlock t.sched_m;
      (try drain t scratch c
       with e ->
         finish t ~error:("internal error: " ^ Printexc.to_string e) c);
      release_if_done t c;
      Mutex.lock t.sched_m;
      (match c.c_state with
      | Running_dirty ->
        c.c_state <- Queued;
        Queue.push c t.runq;
        Condition.broadcast t.sched_c
      | _ -> c.c_state <- Idle);
      Mutex.unlock t.sched_m;
      next ()
    end
  in
  next ()

(* ------------------------------------------------------------------ *)
(* Snapshots *)

let clients t =
  Mutex.lock t.stats_m;
  let cs = List.rev t.conns in
  let rows =
    List.map
      (fun c ->
        let until = if c.c_done then c.c_finished else now () in
        {
          Fleet.name = Printf.sprintf "%s#%d" c.c_peer c.c_id;
          events = c.c_events;
          traces = c.c_traces;
          drops = c.c_drops;
          bytes = c.c_bytes;
          seconds = until -. c.c_started;
          error = c.c_error;
        })
      cs
  in
  Mutex.unlock t.stats_m;
  rows

let snapshot t = Shard_acc.snapshot t.acc

(* Write the configured snapshot artifacts; [Error] when none are
   configured (the control client gets told, rather than a silent OK
   that wrote nothing). *)
let write_snapshot t =
  if t.cfg.snapshot_profile = None && t.cfg.fleet_csv = None then
    Error "no snapshot outputs configured (--out / --fleet-csv)"
  else begin
    let profile, names = snapshot t in
    let name_of r =
      match Hashtbl.find_opt names r with
      | Some n -> n
      | None -> Printf.sprintf "routine_%d" r
    in
    (match t.cfg.snapshot_profile with
    | Some path ->
      write_atomic path (fun oc ->
          Profile_io.save oc ~routine_name:name_of profile)
    | None -> ());
    (match t.cfg.fleet_csv with
    | Some path ->
      let doc =
        Fleet.render
          ~seconds:(now () -. t.started)
          ~name_of ~profile (clients t)
      in
      write_atomic path (fun oc -> output_string oc doc)
    | None -> ());
    Ok ()
  end

let request_snapshot t =
  Mutex.lock t.sched_m;
  t.snapshot_requested <- true;
  Mutex.unlock t.sched_m

let snapshot_loop t () =
  let last = ref (now ()) in
  let rec loop () =
    Mutex.lock t.sched_m;
    let stop = t.snap_stop in
    let requested = t.snapshot_requested in
    t.snapshot_requested <- false;
    Mutex.unlock t.sched_m;
    if not stop then begin
      let due =
        t.cfg.snapshot_every > 0.
        && now () -. !last >= t.cfg.snapshot_every
      in
      if requested || due then begin
        last := now ();
        match write_snapshot t with
        | Ok () -> ()
        | Error e -> if requested then t.cfg.log ("snapshot: " ^ e)
        | exception e ->
          t.cfg.log ("snapshot failed: " ^ Printexc.to_string e)
      end;
      Thread.delay 0.05;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Stats / control protocol *)

let stats t =
  Mutex.lock t.sched_m;
  let live = t.live in
  Mutex.unlock t.sched_m;
  Mutex.lock t.stats_m;
  let conns = List.length t.conns in
  let traces, events, drops =
    List.fold_left
      (fun (tr, ev, dr) c -> (tr + c.c_traces, ev + c.c_events, dr + c.c_drops))
      (0, 0, 0) t.conns
  in
  Mutex.unlock t.stats_m;
  {
    s_live = live;
    s_conns = conns;
    s_traces = traces;
    s_events = events;
    s_drops = drops;
    s_folds = Shard_acc.folds t.acc;
  }

let request_stop t =
  Mutex.lock t.sched_m;
  t.stop_requested <- true;
  Condition.broadcast t.sched_c;
  Mutex.unlock t.sched_m

let handle_control t fd line =
  let line = String.trim line in
  let cmd = String.uppercase_ascii line in
  let reply =
    match cmd with
    | "PING" -> "PONG\n"
    | "STATS" ->
      let s = stats t in
      Printf.sprintf "OK live=%d conns=%d traces=%d events=%d drops=%d folds=%d\n"
        s.s_live s.s_conns s.s_traces s.s_events s.s_drops s.s_folds
    | "SNAPSHOT" -> (
      match write_snapshot t with
      | Ok () -> "OK\n"
      | Error e -> "ERR " ^ e ^ "\n"
      | exception e -> "ERR " ^ Printexc.to_string e ^ "\n")
    | "STOP" ->
      request_stop t;
      "OK\n"
    | _ -> "ERR unknown command\n"
  in
  write_all fd reply

(* ------------------------------------------------------------------ *)
(* Per-connection front thread: route, then read *)

let rec read_exact fd b off len =
  if len = 0 then true
  else
    match Unix.read fd b off len with
    | 0 -> false
    | n -> read_exact fd b (off + n) (len - n)

(* Reader loop of one ingest connection.  Push blocks when the worker
   is behind — that is the backpressure: we stop calling [read]. *)
let reader_loop t c =
  let rec loop () =
    let b = Inbox.take_buffer c.c_inbox in
    match Unix.read c.c_fd b 0 (Bytes.length b) with
    | 0 ->
      Inbox.recycle c.c_inbox b;
      Inbox.push_eof c.c_inbox;
      mark_runnable t c
    | n ->
      Inbox.push c.c_inbox b n;
      mark_runnable t c;
      if conn_error t c = None then loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Inbox.recycle c.c_inbox b;
      finish t ~error:"idle timeout" c;
      mark_runnable t c
    | exception Unix.Unix_error (e, _, _) ->
      (* [shutdown] from [finish] lands here on some platforms; a real
         socket error is terminal either way. *)
      Inbox.recycle c.c_inbox b;
      finish t ~error:("read: " ^ Unix.error_message e) c;
      mark_runnable t c
  in
  loop ();
  (* Clean EOF leaves the close to the worker's Eof handling (see
     [drain]); on an error path the connection is already finished and
     this thread — sole user of the fd — closes it.  Never close a
     still-live fd from here: the worker could be racing us and a
     reused descriptor must not be touched. *)
  Mutex.lock t.stats_m;
  c.c_reader_done <- true;
  let conn_done = c.c_done in
  Mutex.unlock t.stats_m;
  if conn_done then close_fd t c

let read_control_line fd first =
  let b = Buffer.create 64 in
  Buffer.add_string b first;
  let one = Bytes.create 1 in
  let rec loop () =
    if Buffer.length b > 256 || String.contains (Buffer.contents b) '\n' then
      Buffer.contents b
    else
      match Unix.read fd one 0 1 with
      | 0 -> Buffer.contents b
      | _ ->
        Buffer.add_char b (Bytes.get one 0);
        loop ()
      | exception Unix.Unix_error _ -> Buffer.contents b
  in
  loop ()

(* A peer's front thread owns its fd until it routes: registered at
   accept, deregistered right before the front closes it or hands it to
   an ingest connection, both under [stats_m] — so the stop sequence's
   [shutdown_fronts] never touches a closed (possibly reused)
   descriptor.  A front registered after the stop sequence started is
   shut down at once. *)
let front_open t fd =
  Mutex.lock t.stats_m;
  Hashtbl.replace t.fronts fd ();
  if t.fronts_shut then
    (try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ());
  Mutex.unlock t.stats_m

let front_leave t fd =
  Mutex.lock t.stats_m;
  Hashtbl.remove t.fronts fd;
  Mutex.unlock t.stats_m

(* Shutting down the receive side ends a front's blocked read (EOF), so
   a silent or half-line peer cannot hold the stop sequence's join; the
   send side stays open, so a control reply already under way is still
   delivered. *)
let shutdown_fronts t =
  Mutex.lock t.stats_m;
  t.fronts_shut <- true;
  Hashtbl.iter
    (fun fd () ->
      try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    t.fronts;
  Mutex.unlock t.stats_m

let front t fd peer () =
  let cleanup_plain () =
    front_leave t fd;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  match
    if t.cfg.idle_timeout > 0. then
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.idle_timeout;
    let first4 = Bytes.create 4 in
    if not (read_exact fd first4 0 4) then `Close
    else if Bytes.to_string first4 = "ATRC" then `Ingest first4
    else `Control (Bytes.to_string first4)
  with
  | `Close -> cleanup_plain ()
  | `Control first ->
    let line = read_control_line fd first in
    handle_control t fd line;
    cleanup_plain ()
  | `Ingest first4 ->
    front_leave t fd;
    let c = make_conn t fd peer in
    Inbox.push c.c_inbox first4 4;
    mark_runnable t c;
    reader_loop t c
  | exception Unix.Unix_error _ -> cleanup_plain ()

(* ------------------------------------------------------------------ *)
(* Listeners *)

let open_unix_listener path =
  (try if Sys.file_exists path then Unix.unlink path
   with Unix.Unix_error _ | Sys_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 128;
  (fd, "unix:" ^ path)

let open_tcp_listener host port =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
      | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
      | _ -> failwith ("cannot resolve " ^ host))
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd 128;
  let desc =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (a, p) ->
      Printf.sprintf "tcp:%s:%d" (Unix.string_of_inet_addr a) p
    | _ -> "tcp:?"
  in
  (fd, desc)

(* How long [accept_loop] backs off when the process or system is out
   of descriptors or memory; the pending peer waits in the backlog. *)
let accept_backoff = 0.1

(* Poll with a timeout instead of blocking in accept(2): closing an fd
   does not wake a blocked accept on Linux, and the stop sequence must
   be able to join this thread.  Running out of descriptors (or kernel
   memory) is transient: back off and keep accepting, logging once per
   episode, so control verbs can still reach the daemon once
   connections close. *)
let accept_loop t lfd () =
  Unix.set_nonblock lfd;
  let stopping () =
    Mutex.lock t.sched_m;
    let s = t.stop_requested in
    Mutex.unlock t.sched_m;
    s
  in
  let starved = ref false in
  let rec loop () =
    if not (stopping ()) then begin
      match Unix.select [ lfd ] [] [] 0.2 with
      | [], _, _ -> loop ()
      | _ -> (
        match Unix.accept lfd with
        | fd, sa ->
          starved := false;
          Unix.clear_nonblock fd;
          let peer = string_of_sockaddr sa in
          front_open t fd;
          let th = Thread.create (front t fd peer) () in
          add_thread t th;
          loop ()
        | exception
            Unix.Unix_error
              ( ( Unix.ECONNABORTED | Unix.EINTR | Unix.EAGAIN
                | Unix.EWOULDBLOCK ),
                _,
                _ ) ->
          loop ()
        | exception
            Unix.Unix_error
              ( ((Unix.EMFILE | Unix.ENFILE | Unix.ENOBUFS | Unix.ENOMEM) as e),
                _,
                _ ) ->
          if not !starved then begin
            starved := true;
            t.cfg.log
              (Printf.sprintf "accept: %s; backing off" (Unix.error_message e))
          end;
          Thread.delay accept_backoff;
          loop ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ -> ()  (* listener closed *)
    end
  in
  (* The stop sequence closes the listener concurrently; any EBADF that
     slips past the per-call handlers just ends the loop. *)
  try loop () with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Start / stop *)

let addresses t = List.map snd t.listeners

let start cfg =
  if cfg.unix_path = None && cfg.tcp = None then
    invalid_arg "Server.start: no listener configured";
  if cfg.jobs < 1 then invalid_arg "Server.start";
  let t =
    {
      cfg;
      acc = Shard_acc.create ();
      slices =
        Inbox.pool ~buffer_bytes:cfg.read_bytes
          ~max_idle:(max 1 (idle_slice_bytes / cfg.read_bytes));
      profilers = Ingest_driver.pool cfg.profiler;
      started = now ();
      sched_m = Mutex.create ();
      sched_c = Condition.create ();
      runq = Queue.create ();
      live = 0;
      stop_requested = false;
      workers_stop = false;
      snap_stop = false;
      stop_running = false;
      stopped = false;
      snapshot_requested = false;
      stats_m = Mutex.create ();
      conns = [];
      fronts = Hashtbl.create 16;
      fronts_shut = false;
      next_id = 0;
      threads = [];
      workers = [];
      listeners = [];
    }
  in
  let listeners =
    (match cfg.unix_path with
    | Some p -> [ open_unix_listener p ]
    | None -> [])
    @
    match cfg.tcp with
    | Some (host, port) -> [ open_tcp_listener host port ]
    | None -> []
  in
  t.listeners <- listeners;
  List.iter
    (fun (lfd, _) -> add_thread t (Thread.create (accept_loop t lfd) ()))
    listeners;
  t.workers <-
    List.init cfg.jobs (fun _ -> Serve_backend.spawn (worker_loop t));
  add_thread t (Thread.create (snapshot_loop t) ());
  t.cfg.log
    (Printf.sprintf "serving on %s (%d workers%s)"
       (String.concat ", " (addresses t))
       cfg.jobs
       (if Serve_backend.parallel then "" else ", no parallelism"));
  t

let live_conns t =
  Mutex.lock t.sched_m;
  let n = t.live in
  Mutex.unlock t.sched_m;
  n

let poll_drained t ~timeout =
  let deadline = now () +. timeout in
  let rec loop () =
    if live_conns t = 0 then true
    else if now () > deadline then false
    else begin
      Thread.delay 0.02;
      loop ()
    end
  in
  loop ()

let wait t =
  (* Block until someone requests a stop... *)
  Mutex.lock t.sched_m;
  while not t.stop_requested do
    Condition.wait t.sched_c t.sched_m
  done;
  let mine = (not t.stopped) && not t.stop_running in
  if mine then t.stop_running <- true;
  Mutex.unlock t.sched_m;
  if mine then begin
    (* ...then run the stop sequence on this thread. *)
    (* 1. no new connections; peers not streaming a trace are cut off *)
    List.iter
      (fun (lfd, _) -> try Unix.close lfd with Unix.Unix_error _ -> ())
      t.listeners;
    shutdown_fronts t;
    (* 2. let live streams drain; then force the stragglers *)
    if not (poll_drained t ~timeout:10.) then begin
      t.cfg.log "forcing open connections closed";
      Mutex.lock t.stats_m;
      let open_conns = List.filter (fun c -> not c.c_done) t.conns in
      Mutex.unlock t.stats_m;
      List.iter (fun c -> finish t ~error:"server shutdown" c) open_conns;
      ignore (poll_drained t ~timeout:5.)
    end;
    (* 3. stop workers after the queue is quiet, then the aux threads *)
    Mutex.lock t.sched_m;
    t.workers_stop <- true;
    t.snap_stop <- true;
    Condition.broadcast t.sched_c;
    Mutex.unlock t.sched_m;
    List.iter Serve_backend.join t.workers;
    Mutex.lock t.stats_m;
    let threads = t.threads in
    Mutex.unlock t.stats_m;
    List.iter (fun th -> try Thread.join th with _ -> ()) threads;
    (* 4. final snapshot — every fold is in, nothing can race it *)
    (match write_snapshot t with
    | Ok () | Error _ -> ()
    | exception e ->
      t.cfg.log ("final snapshot failed: " ^ Printexc.to_string e));
    (match t.cfg.unix_path with
    | Some p -> ( try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
    | None -> ());
    Mutex.lock t.sched_m;
    t.stopped <- true;
    Condition.broadcast t.sched_c;
    Mutex.unlock t.sched_m
  end
  else begin
    (* another thread is (or was) stopping; wait for it to complete *)
    Mutex.lock t.sched_m;
    while not t.stopped do
      Condition.wait t.sched_c t.sched_m
    done;
    Mutex.unlock t.sched_m
  end

let stop t =
  request_stop t;
  wait t
