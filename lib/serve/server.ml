(* The aprof ingest daemon.

   Thread/domain layout:

   - one accept systhread per listener (Unix and/or TCP);
   - one front systhread per connection: it routes on the first four
     bytes ("ATRC" -> ingest stream, anything else -> one-line control
     command) and, for ingest, becomes the connection's reader loop —
     [read] into a pooled slice, queue it ([push], the backpressure
     point);
   - a pool of ingest worker domains: each claims a runnable
     connection, decodes one queued slice through [Trace_net.feed] ->
     [Ingest_driver] (folding each completed trace's profile into the
     one accumulator), and puts the connection at the back of the run
     queue if more is queued;
   - one snapshot systhread polling the timer / SIGHUP-style requests.

   One lock: [t.m] guards every shared field — each connection's
   queued slices, queued-byte count, end-of-stream flag, run state,
   counters and descriptor holds, the run queue and the daemon's
   bookkeeping.  Reads, decodes and folds run outside it ([Shard_acc]
   keeps its own lock).  A reader's push and a worker's "nothing
   queued, so idle" both run under it, so a push lands either before
   the worker looks (and the worker re-queues the connection) or after
   (and the push schedules it).  A connection is in the run queue or
   claimed at most once ([c_busy]), so exactly one worker at a time
   touches its decoder and driver — they need no lock of their own,
   and may move between workers from one claim to the next because
   [feed] finishes every chunk it opens before it returns.

   Ownership: a worker owns one decode scratch ([Trace_net.scratch]),
   created when it starts and lent to every feed it runs.  The daemon
   owns one pool of read slices and one of reset profilers
   ([Ingest_driver.pool]), both filled only as connections give back
   what they used.  A connection owns its parse state, its queued
   slices, the slices of an unfinished item and, while a trace is
   open, one profiler.  Its reader and its decoding side each hold its
   descriptor, and the last to let go closes it.

   Failure isolation: a decode error poisons only its own connection —
   the worker aborts the partial trace (never folded), the connection
   is finished, and every other stream is untouched.  With [salvage]
   the per-chunk drop trichotomy of the file reader applies on the wire
   instead. *)

module Trace_net = Aprof_trace.Trace_net
module Trace_stream = Aprof_trace.Trace_stream
module Ingest_driver = Aprof_tools.Ingest_driver
module Profile = Aprof_core.Profile
module Profile_io = Aprof_core.Profile_io
module Pool = Aprof_util.Pool

let now () = Unix.gettimeofday ()

type config = {
  unix_path : string option;  (* Unix-domain listener path *)
  tcp : (string * int) option;  (* TCP listener (host, port; 0 = any) *)
  profiler : (module Aprof_tools.Tool.Profiler);
  jobs : int;  (* ingest workers *)
  snapshot_every : float;  (* seconds; 0 = only on request *)
  snapshot_profile : string option;  (* profile CSV written per snapshot *)
  fleet_csv : string option;  (* fleet CSV written per snapshot *)
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
    jobs = max 1 (Domain.recommended_domain_count () - 1);
    snapshot_every = 0.;
    snapshot_profile = None;
    fleet_csv = None;
    inbox_bytes = 256 * 1024;
    read_bytes = 64 * 1024;
    idle_timeout = 0.;
    salvage = false;
    log = ignore;
  }

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_peer : string;
  c_started : float;
  mutable c_dec : (Trace_net.t * Ingest_driver.t) option;
      (* the claiming worker's; [None] once released *)
  (* Everything below is under [t.m]. *)
  c_q : (Bytes.t * int) Queue.t;  (* received slices, with their lengths *)
  c_room : Condition.t;  (* the reader waits here for queue room *)
  mutable c_queued : int;  (* payload bytes in [c_q] *)
  mutable c_eof : bool;  (* the reader saw end of stream *)
  mutable c_busy : bool;  (* in the run queue or claimed by a worker *)
  mutable c_fd_holds : int;  (* reader + decoding side; 0 = closed *)
  mutable c_events : int;  (* events of completed (folded) traces *)
  mutable c_traces : int;
  mutable c_drops : int;
  mutable c_bytes : int;
  mutable c_finished : float;  (* 0. while live *)
  mutable c_error : string option;
  mutable c_done : bool;  (* finished (cleanly or not), live-- happened *)
}

type t = {
  cfg : config;
  acc : Shard_acc.t;
  slices : Bytes.t Pool.t;  (* every connection's read slices *)
  profilers : Ingest_driver.pool;  (* reset profilers between traces *)
  started : float;
  next_id : int Atomic.t;
  m : Mutex.t;  (* the one lock: every mutable field below *)
  work : Condition.t;  (* a connection was queued, or [quit] *)
  stop_c : Condition.t;  (* [stop_requested] or [stopped] changed *)
  runq : conn Queue.t;
  mutable live : int;
  mutable stop_requested : bool;
  mutable quit : bool;  (* workers and the snapshot thread exit *)
  mutable stop_running : bool;  (* one thread owns the stop sequence *)
  mutable stopped : bool;
  mutable snapshot_requested : bool;
  mutable conns : conn list;  (* every ingest conn ever, newest first *)
  fronts : (Unix.file_descr, unit) Hashtbl.t;
      (* peers not routed yet or on a control line: not in [conns] *)
  mutable fronts_shut : bool;  (* the stop sequence shut [fronts] down *)
  mutable threads : Thread.t list;  (* accept + front/reader + snapshot *)
  mutable workers : unit Domain.t list;
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

let locked t f =
  Mutex.lock t.m;
  match f () with
  | v ->
    Mutex.unlock t.m;
    v
  | exception e ->
    Mutex.unlock t.m;
    raise e

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

let add_thread t th = locked t (fun () -> t.threads <- th :: t.threads)

let take_slice t =
  match Pool.take t.slices with
  | Some b -> b
  | None -> Bytes.create t.cfg.read_bytes

(* ------------------------------------------------------------------ *)
(* Connection lifecycle *)

(* Under [t.m]: put an idle connection at the back of the run queue. *)
let schedule t c =
  if not c.c_busy then begin
    c.c_busy <- true;
    Queue.push c t.runq;
    Condition.signal t.work
  end

(* The reader and the decoding side each hold the descriptor; the last
   to let go closes it, so no thread can close (and the system reuse) a
   descriptor another still reads or shuts down. *)
let let_go t c =
  locked t (fun () ->
      c.c_fd_holds <- c.c_fd_holds - 1;
      if c.c_fd_holds = 0 then
        try Unix.close c.c_fd with Unix.Unix_error _ -> ())

(* Terminal transition of a connection; idempotent, callable from the
   reader (idle timeout, read error), a worker (end of stream or decode
   error) or the stop sequence (forced shutdown).  It gives the queued
   slices back, wakes a reader waiting for room, shuts the socket down
   and schedules the connection, so a worker releases its decoder. *)
let finish t ?error c =
  let first =
    locked t (fun () ->
        let first = not c.c_done in
        if first then begin
          c.c_done <- true;
          c.c_finished <- now ();
          c.c_error <- error;
          Queue.iter (fun (b, _) -> Pool.give t.slices b) c.c_q;
          Queue.clear c.c_q;
          c.c_queued <- 0;
          Condition.signal c.c_room;
          (if c.c_fd_holds > 0 then
             try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL
             with Unix.Unix_error _ -> ());
          t.live <- t.live - 1;
          schedule t c
        end;
        first)
  in
  match error with
  | Some e when first ->
    t.cfg.log (Printf.sprintf "conn %d (%s): %s" c.c_id c.c_peer e)
  | _ -> ()

let make_conn t fd peer =
  let c =
    {
      c_id = Atomic.fetch_and_add t.next_id 1;
      c_fd = fd;
      c_peer = peer;
      c_started = now ();
      c_dec = None;
      c_q = Queue.create ();
      c_room = Condition.create ();
      c_queued = 0;
      c_eof = false;
      c_busy = false;
      c_fd_holds = 2;
      c_events = 0;
      c_traces = 0;
      c_drops = 0;
      c_bytes = 0;
      c_finished = 0.;
      c_error = None;
      c_done = false;
    }
  in
  let driver =
    Ingest_driver.create ~salvage:t.cfg.salvage ~pool:t.profilers
      ~on_profile:(fun ~profile ~events ->
        Shard_acc.fold t.acc profile;
        locked t (fun () ->
            c.c_traces <- c.c_traces + 1;
            c.c_events <- c.c_events + events))
      ()
  in
  let cb =
    {
      Trace_net.on_batch = (fun b -> Ingest_driver.on_batch driver b);
      on_define =
        (fun rid name ->
          (* A line break would end the record of a snapshot's name
             table early, and the rest would read as records. *)
          if not (Profile_io.writable_name name) then
            raise
              (Trace_stream.Decode_error
                 (Printf.sprintf "routine %d: name contains a line break" rid));
          Shard_acc.define t.acc rid name);
      on_trace_end = (fun () -> Ingest_driver.trace_end driver);
      on_drop =
        (fun d ->
          Ingest_driver.note_drop driver;
          locked t (fun () -> c.c_drops <- c.c_drops + 1);
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
  c.c_dec <-
    Some
      ( Trace_net.create ~salvage:t.cfg.salvage ~release:(Pool.give t.slices) cb,
        driver );
  locked t (fun () ->
      t.conns <- c :: t.conns;
      t.live <- t.live + 1);
  c

(* ------------------------------------------------------------------ *)
(* Ingest workers *)

(* A finished connection keeps only the counters STATS and the fleet
   CSV read: its decoder and driver go, a partial trace's profiler back
   to the pool ([finish] gives the queued slices back), and the decoding
   side lets go of the descriptor. *)
let release t c =
  match c.c_dec with
  | None -> ()
  | Some (_, driver) ->
    Ingest_driver.abort driver;
    c.c_dec <- None;
    let_go t c

(* Under [t.m]: the claiming worker's next job.  A connection enters
   the run queue only with a slice queued, its stream ended or itself
   finished, and nothing but its claimer and [finish] takes its slices,
   so a claimed connection that is neither finished nor holding a slice
   has reached the end of its stream. *)
let claim c =
  if c.c_done then `Release
  else
    match Queue.take_opt c.c_q with
    | Some (b, n) ->
      c.c_queued <- c.c_queued - n;
      c.c_bytes <- c.c_bytes + n;
      Condition.signal c.c_room;
      `Feed (b, n)
    | None -> `Close

(* Run one claimed job on the worker's scratch; the decoder gives each
   slice back to the pool once no unfinished item needs it.  A
   connection's last job releases it before [finish] shuts the socket
   down, so a peer that sees EOF knows its whole stream was decoded and
   folded, and its connection's state released. *)
let step t scratch c net job =
  let ended error =
    release t c;
    finish t ?error c
  in
  let failed = function
    | Trace_stream.Decode_error msg -> ended (Some msg)
    | e -> ended (Some ("internal error: " ^ Printexc.to_string e))
  in
  match job with
  | `Release -> ended None
  | `Feed (b, n) -> (
    try Trace_net.feed net scratch b ~pos:0 ~len:n with e -> failed e)
  | `Close -> (
    match Trace_net.close net with () -> ended None | exception e -> failed e)

let worker_loop t () =
  let scratch = Trace_net.scratch () in
  let rec next () =
    Mutex.lock t.m;
    while Queue.is_empty t.runq && not t.quit do
      Condition.wait t.work t.m
    done;
    match Queue.take_opt t.runq with
    | None -> Mutex.unlock t.m
    | Some c ->
      let job = claim c in
      Mutex.unlock t.m;
      Option.iter (fun (net, _) -> step t scratch c net job) c.c_dec;
      Mutex.lock t.m;
      if
        Option.is_some c.c_dec
        && (c.c_done || c.c_eof || not (Queue.is_empty c.c_q))
      then begin
        Queue.push c t.runq;
        Condition.signal t.work
      end
      else c.c_busy <- false;
      Mutex.unlock t.m;
      next ()
  in
  next ()

(* ------------------------------------------------------------------ *)
(* Snapshots *)

let clients t =
  locked t (fun () ->
      List.rev_map
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
        t.conns)

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

let request_snapshot t = locked t (fun () -> t.snapshot_requested <- true)

let snapshot_loop t () =
  let last = ref (now ()) in
  let rec loop () =
    let quit, requested =
      locked t (fun () ->
          let r = t.snapshot_requested in
          t.snapshot_requested <- false;
          (t.quit, r))
    in
    if not quit then begin
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
  let s =
    locked t (fun () ->
        List.fold_left
          (fun s c ->
            {
              s with
              s_traces = s.s_traces + c.c_traces;
              s_events = s.s_events + c.c_events;
              s_drops = s.s_drops + c.c_drops;
            })
          {
            s_live = t.live;
            s_conns = List.length t.conns;
            s_traces = 0;
            s_events = 0;
            s_drops = 0;
            s_folds = 0;
          }
          t.conns)
  in
  { s with s_folds = Shard_acc.folds t.acc }

let request_stop t =
  locked t (fun () ->
      t.stop_requested <- true;
      Condition.broadcast t.stop_c)

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

(* Queue a received slice, waiting while the queue is non-empty and the
   slice would take it past [inbox_bytes]: a reader that outruns its
   worker stops calling [read], and the kernel socket buffer and then
   the peer absorb the pressure.  An empty queue takes a slice of any
   size, so the bound can never deadlock a reader.  [false] once the
   connection has finished: the slice went back to the pool. *)
let push t c b n =
  locked t (fun () ->
      while
        (not c.c_done) && c.c_queued > 0 && c.c_queued + n > t.cfg.inbox_bytes
      do
        Condition.wait c.c_room t.m
      done;
      if c.c_done then Pool.give t.slices b
      else begin
        Queue.push (b, n) c.c_q;
        c.c_queued <- c.c_queued + n;
        schedule t c
      end;
      not c.c_done)

(* Reader loop of one ingest connection; it lets go of the descriptor
   when the stream ends or the connection finishes. *)
let reader_loop t c =
  let rec loop () =
    let b = take_slice t in
    match Unix.read c.c_fd b 0 (Bytes.length b) with
    | 0 ->
      Pool.give t.slices b;
      locked t (fun () ->
          c.c_eof <- true;
          if not c.c_done then schedule t c)
    | n -> if push t c b n then loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Pool.give t.slices b;
      finish t ~error:"idle timeout" c
    | exception Unix.Unix_error (e, _, _) ->
      (* [shutdown] from [finish] lands here on some platforms; a real
         socket error is terminal either way. *)
      Pool.give t.slices b;
      finish t ~error:("read: " ^ Unix.error_message e) c
  in
  loop ();
  let_go t c

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
   an ingest connection, both under [t.m] — so the stop sequence's
   [shutdown_fronts] never touches a closed (possibly reused)
   descriptor.  A front registered after the stop sequence started is
   shut down at once. *)
let front_open t fd =
  locked t (fun () ->
      Hashtbl.replace t.fronts fd ();
      if t.fronts_shut then
        try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())

let front_leave t fd = locked t (fun () -> Hashtbl.remove t.fronts fd)

(* Shutting down the receive side ends a front's blocked read (EOF), so
   a silent or half-line peer cannot hold the stop sequence's join; the
   send side stays open, so a control reply already under way is still
   delivered. *)
let shutdown_fronts t =
  locked t (fun () ->
      t.fronts_shut <- true;
      Hashtbl.iter
        (fun fd () ->
          try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error _ -> ())
        t.fronts)

(* The first four bytes land in a pooled slice, which an ingest stream
   queues as its first. *)
let front t fd peer () =
  let b = take_slice t in
  let cleanup_plain () =
    Pool.give t.slices b;
    front_leave t fd;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  match
    if t.cfg.idle_timeout > 0. then
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.idle_timeout;
    read_exact fd b 0 4
  with
  | false -> cleanup_plain ()
  | true when Bytes.sub_string b 0 4 = "ATRC" ->
    front_leave t fd;
    let c = make_conn t fd peer in
    ignore (push t c b 4);
    reader_loop t c
  | true ->
    handle_control t fd (read_control_line fd (Bytes.sub_string b 0 4));
    cleanup_plain ()
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
  let stopping () = locked t (fun () -> t.stop_requested) in
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
  if cfg.jobs < 1 || cfg.read_bytes < 4 || cfg.inbox_bytes < 1 then
    invalid_arg "Server.start";
  let t =
    {
      cfg;
      acc = Shard_acc.create ();
      slices = Pool.create ~max_idle:(max 1 (idle_slice_bytes / cfg.read_bytes));
      profilers = Ingest_driver.pool cfg.profiler;
      started = now ();
      next_id = Atomic.make 0;
      m = Mutex.create ();
      work = Condition.create ();
      stop_c = Condition.create ();
      runq = Queue.create ();
      live = 0;
      stop_requested = false;
      quit = false;
      stop_running = false;
      stopped = false;
      snapshot_requested = false;
      conns = [];
      fronts = Hashtbl.create 16;
      fronts_shut = false;
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
    List.init cfg.jobs (fun _ -> Domain.spawn (worker_loop t));
  add_thread t (Thread.create (snapshot_loop t) ());
  t.cfg.log
    (Printf.sprintf "serving on %s (%d workers)"
       (String.concat ", " (addresses t))
       cfg.jobs);
  t

let poll_drained t ~timeout =
  let deadline = now () +. timeout in
  let rec loop () =
    if locked t (fun () -> t.live) = 0 then true
    else if now () > deadline then false
    else begin
      Thread.delay 0.02;
      loop ()
    end
  in
  loop ()

let wait t =
  (* Block until someone requests a stop... *)
  let mine =
    locked t (fun () ->
        while not t.stop_requested do
          Condition.wait t.stop_c t.m
        done;
        let mine = not (t.stopped || t.stop_running) in
        if mine then t.stop_running <- true;
        mine)
  in
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
      List.iter
        (fun c -> finish t ~error:"server shutdown" c)
        (locked t (fun () -> List.filter (fun c -> not c.c_done) t.conns));
      ignore (poll_drained t ~timeout:5.)
    end;
    (* 3. stop the workers once the run queue is empty (every finished
       connection released), then the aux threads *)
    locked t (fun () ->
        t.quit <- true;
        Condition.broadcast t.work);
    List.iter Domain.join t.workers;
    List.iter
      (fun th -> try Thread.join th with _ -> ())
      (locked t (fun () -> t.threads));
    (* 4. final snapshot — every fold is in, nothing can race it *)
    (match write_snapshot t with
    | Ok () | Error _ -> ()
    | exception e ->
      t.cfg.log ("final snapshot failed: " ^ Printexc.to_string e));
    (match t.cfg.unix_path with
    | Some p -> ( try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
    | None -> ());
    locked t (fun () ->
        t.stopped <- true;
        Condition.broadcast t.stop_c)
  end
  else
    (* another thread is (or was) stopping; wait for it to complete *)
    locked t (fun () ->
        while not t.stopped do
          Condition.wait t.stop_c t.m
        done)

let stop t =
  request_stop t;
  wait t
