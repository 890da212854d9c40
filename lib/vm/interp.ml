module Event = Aprof_trace.Event
module Batch = Event.Batch
module Trace = Aprof_trace.Trace
module Routine_table = Aprof_trace.Routine_table
module Vec = Aprof_util.Vec
module Rng = Aprof_util.Rng
open Program

type config = {
  scheduler : Scheduler.policy;
  seed : int;
  devices : (string * Device.t) list;
  max_events : int;
  reuse_freed_memory : bool;
}

let default_config =
  {
    scheduler = Scheduler.Round_robin { slice = 64 };
    seed = 42;
    devices = [];
    max_events = 50_000_000;
    reuse_freed_memory = false;
  }

type result = {
  trace : Trace.t;
  routines : Routine_table.t;
  threads_spawned : int;
  memory_high_water : int;
  events_emitted : int;
}

exception Run_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Run_error s)) fmt

type thread = {
  tid : int;
  exit_sync : int; (* sync-object id for spawn/join happens-before edges *)
  mutable prog : prog option; (* None while blocked or exited *)
  mutable depth : int;
  mutable exited : bool;
  mutable joiners : (int * (unit -> prog)) list;
}

type semaphore = { mutable count : int; sem_waiters : (int * (unit -> prog)) Queue.t }

type barrier_state = {
  parties : int;
  bar_sync : int;
  mutable arrived : int;
  mutable bar_waiters : (int * (unit -> prog)) list;
}

type state = {
  cfg : config;
  batch : Batch.t; (* recycled emission buffer, flushed when full *)
  flush : Batch.t -> unit;
  routines : Routine_table.t;
  rng : Rng.t;
  sched : Scheduler.t;
  memory : (int, int) Hashtbl.t;
  mutable next_addr : int;
  mutable free_list : (int * int) list; (* (addr, len) of recycled blocks *)
  mutable allocated : int;
  mutable high_water : int;
  threads : thread Vec.t;
  mutable live : int; (* threads not yet exited *)
  mutable sync_ids : int;
  sems : (int, semaphore) Hashtbl.t;
  bars : (int, barrier_state) Hashtbl.t;
  fds : (int, Device.t) Hashtbl.t;
  mutable next_fd : int;
  device_table : (string * Device.t) list;
  mutable events : int;
  mutable current : int; (* tid owning the last Switch_thread, -1 initially *)
}

(* The hot emitters: raw fields go straight into the recycled batch; no
   [Event.t] is constructed.  The batch is handed to [flush] when full
   and once more, partially filled, at the end of the run. *)
let emit_raw st ~tag ~tid ~arg ~len =
  st.events <- st.events + 1;
  if st.events > st.cfg.max_events then
    fail "event budget exhausted (%d events): runaway program?" st.cfg.max_events;
  if Batch.is_full st.batch then begin
    st.flush st.batch;
    Batch.clear st.batch
  end;
  Batch.unsafe_push st.batch ~tag ~tid ~arg ~len

let emit_flush st =
  if not (Batch.is_empty st.batch) then begin
    st.flush st.batch;
    Batch.clear st.batch
  end

let emit_plain st tag tid = emit_raw st ~tag ~tid ~arg:0 ~len:0
let emit_arg st tag tid arg = emit_raw st ~tag ~tid ~arg ~len:0
let emit_range st tag tid ~addr ~len = emit_raw st ~tag ~tid ~arg:addr ~len

let fresh_sync st =
  let id = st.sync_ids in
  st.sync_ids <- id + 1;
  id

let thread st tid =
  if tid < 0 || tid >= Vec.length st.threads then fail "unknown thread %d" tid;
  Vec.get st.threads tid

let new_thread st prog =
  let tid = Vec.length st.threads in
  let th =
    {
      tid;
      exit_sync = fresh_sync st;
      prog = Some prog;
      depth = 0;
      exited = false;
      joiners = [];
    }
  in
  Vec.push st.threads th;
  Scheduler.enqueue st.sched tid;
  st.live <- st.live + 1;
  emit_plain st Batch.tag_thread_start tid;
  th

let make_runnable st tid k =
  let th = thread st tid in
  th.prog <- Some (k ());
  Scheduler.enqueue st.sched tid

let mem_read st addr =
  if addr < 0 then fail "read from negative address %d" addr;
  Option.value ~default:0 (Hashtbl.find_opt st.memory addr)

let mem_write st addr v =
  if addr < 0 then fail "write to negative address %d" addr;
  Hashtbl.replace st.memory addr v

(* Execute one DSL step of thread [th].  Returns [true] while the thread
   can keep its slice (still runnable), [false] when it blocked, exited,
   or yielded. *)
let step st th =
  match th.prog with
  | None -> fail "stepping a parked thread %d" th.tid
  | Some p -> (
    let tid = th.tid in
    let continue_with p' =
      th.prog <- Some p';
      true
    in
    let park () =
      th.prog <- None;
      false
    in
    match p with
    | Halt ->
      if th.depth <> 0 then
        fail "thread %d exits with %d unbalanced calls" tid th.depth;
      th.prog <- None;
      th.exited <- true;
      st.live <- st.live - 1;
      (* The exit publishes through the exit sync: current joiners wake
         here, late joiners acquire in the [Join] handler. *)
      emit_arg st Batch.tag_release tid th.exit_sync;
      List.iter
        (fun (jtid, k) ->
          emit_arg st Batch.tag_acquire jtid th.exit_sync;
          make_runnable st jtid k)
        (List.rev th.joiners);
      th.joiners <- [];
      emit_plain st Batch.tag_thread_exit tid;
      false
    | Read (addr, k) ->
      let v = mem_read st addr in
      emit_arg st Batch.tag_read tid addr;
      continue_with (k v)
    | Write (addr, v, k) ->
      mem_write st addr v;
      emit_arg st Batch.tag_write tid addr;
      continue_with (k ())
    | Compute (units, k) ->
      if units < 0 then fail "negative compute units";
      if units > 0 then emit_arg st Batch.tag_block tid units;
      continue_with (k ())
    | Enter (name, k) ->
      let routine = Routine_table.intern st.routines name in
      th.depth <- th.depth + 1;
      emit_arg st Batch.tag_call tid routine;
      continue_with (k ())
    | Leave k ->
      if th.depth <= 0 then fail "thread %d: return without call" tid;
      th.depth <- th.depth - 1;
      emit_plain st Batch.tag_return tid;
      continue_with (k ())
    | Alloc (n, k) ->
      if n <= 0 then fail "alloc of %d cells" n;
      (* first fit in the free list when recycling is enabled *)
      let recycled =
        if not st.cfg.reuse_freed_memory then None
        else begin
          let rec take acc = function
            | [] -> None
            | (a, l) :: rest when l >= n ->
              st.free_list <- List.rev_append acc
                  (if l = n then rest else (a + n, l - n) :: rest);
              Some a
            | blk :: rest -> take (blk :: acc) rest
          in
          take [] st.free_list
        end
      in
      let base =
        match recycled with
        | Some a -> a
        | None ->
          let a = st.next_addr in
          st.next_addr <- a + n;
          a
      in
      (* recycled cells must read as zero, like fresh ones *)
      (if recycled <> None then
         for a = base to base + n - 1 do
           Hashtbl.remove st.memory a
         done);
      st.allocated <- st.allocated + n;
      if st.allocated > st.high_water then st.high_water <- st.allocated;
      emit_range st Batch.tag_alloc tid ~addr:base ~len:n;
      continue_with (k base)
    | Dealloc (addr, n, k) ->
      if n <= 0 then fail "dealloc of %d cells" n;
      st.allocated <- st.allocated - n;
      if st.cfg.reuse_freed_memory then
        st.free_list <- (addr, n) :: st.free_list;
      emit_range st Batch.tag_free tid ~addr ~len:n;
      continue_with (k ())
    | Sem_create (n, k) ->
      if n < 0 then fail "semaphore with negative count";
      let id = fresh_sync st in
      Hashtbl.add st.sems id { count = n; sem_waiters = Queue.create () };
      continue_with (k (Program.unsafe_sem_of_id id))
    | Sem_wait (s, k) -> (
      let id = Program.sem_id s in
      match Hashtbl.find_opt st.sems id with
      | None -> fail "wait on unknown semaphore %d" id
      | Some sem ->
        if sem.count > 0 then begin
          sem.count <- sem.count - 1;
          emit_arg st Batch.tag_acquire tid id;
          continue_with (k ())
        end
        else begin
          Queue.add (tid, k) sem.sem_waiters;
          park ()
        end)
    | Sem_trywait (s, k) -> (
      let id = Program.sem_id s in
      match Hashtbl.find_opt st.sems id with
      | None -> fail "trywait on unknown semaphore %d" id
      | Some sem ->
        if sem.count > 0 then begin
          sem.count <- sem.count - 1;
          emit_arg st Batch.tag_acquire tid id;
          continue_with (k true)
        end
        else continue_with (k false))
    | Sem_post (s, k) -> (
      let id = Program.sem_id s in
      match Hashtbl.find_opt st.sems id with
      | None -> fail "post on unknown semaphore %d" id
      | Some sem ->
        emit_arg st Batch.tag_release tid id;
        (if Queue.is_empty sem.sem_waiters then sem.count <- sem.count + 1
         else begin
           let wtid, wk = Queue.pop sem.sem_waiters in
           emit_arg st Batch.tag_acquire wtid id;
           make_runnable st wtid wk
         end);
        continue_with (k ()))
    | Barrier_create (n, k) ->
      if n <= 0 then fail "barrier with %d parties" n;
      let id = fresh_sync st in
      Hashtbl.add st.bars id
        { parties = n; bar_sync = id; arrived = 0; bar_waiters = [] };
      continue_with (k (Program.unsafe_barrier_of_id id))
    | Barrier_wait (b, k) -> (
      let id = Program.barrier_id b in
      match Hashtbl.find_opt st.bars id with
      | None -> fail "wait on unknown barrier %d" id
      | Some bar ->
        (* Arrival publishes; departure observes every arrival. *)
        emit_arg st Batch.tag_release tid bar.bar_sync;
        if bar.arrived + 1 < bar.parties then begin
          bar.arrived <- bar.arrived + 1;
          bar.bar_waiters <- (tid, k) :: bar.bar_waiters;
          park ()
        end
        else begin
          emit_arg st Batch.tag_acquire tid bar.bar_sync;
          List.iter
            (fun (wtid, wk) ->
              emit_arg st Batch.tag_acquire wtid bar.bar_sync;
              make_runnable st wtid wk)
            (List.rev bar.bar_waiters);
          bar.arrived <- 0;
          bar.bar_waiters <- [];
          continue_with (k ())
        end)
    | Spawn (body, k) ->
      let child = new_thread st body in
      (* Parent's prior work happens-before the child's first step. *)
      emit_arg st Batch.tag_release tid child.exit_sync;
      emit_arg st Batch.tag_acquire child.tid child.exit_sync;
      continue_with (k child.tid)
    | Join (target, k) ->
      let tgt = thread st target in
      if tgt.exited then begin
        emit_arg st Batch.tag_acquire tid tgt.exit_sync;
        continue_with (k ())
      end
      else begin
        tgt.joiners <- (tid, k) :: tgt.joiners;
        park ()
      end
    | Self k -> continue_with (k tid)
    | Yield k ->
      th.prog <- Some (k ());
      false
    | Sys_open (name, k) -> (
      match List.assoc_opt name st.device_table with
      | None -> fail "sys_open: unknown device %S" name
      | Some dev ->
        let fd = st.next_fd in
        st.next_fd <- fd + 1;
        Hashtbl.add st.fds fd dev;
        continue_with (k fd))
    | Sys_read (fd, buf, len, k) -> (
      if len < 0 then fail "sys_read: negative length";
      match Hashtbl.find_opt st.fds fd with
      | None -> fail "sys_read: bad fd %d" fd
      | Some dev ->
        let data = Device.read dev len in
        let got = Array.length data in
        Array.iteri (fun i v -> mem_write st (buf + i) v) data;
        if got > 0 then emit_range st Batch.tag_kernel_to_user tid ~addr:buf ~len:got;
        Scheduler.note_io st.sched tid;
        continue_with (k got))
    | Sys_pread (fd, buf, len, pos, k) -> (
      if len < 0 || pos < 0 then fail "sys_pread: negative argument";
      match Hashtbl.find_opt st.fds fd with
      | None -> fail "sys_pread: bad fd %d" fd
      | Some dev ->
        let data = Device.read_at dev ~pos len in
        let got = Array.length data in
        Array.iteri (fun i v -> mem_write st (buf + i) v) data;
        if got > 0 then emit_range st Batch.tag_kernel_to_user tid ~addr:buf ~len:got;
        Scheduler.note_io st.sched tid;
        continue_with (k got))
    | Sys_write (fd, buf, len, k) -> (
      if len < 0 then fail "sys_write: negative length";
      match Hashtbl.find_opt st.fds fd with
      | None -> fail "sys_write: bad fd %d" fd
      | Some dev ->
        let data = Array.init len (fun i -> mem_read st (buf + i)) in
        if len > 0 then emit_range st Batch.tag_user_to_kernel tid ~addr:buf ~len;
        let _accepted = Device.write dev data in
        Scheduler.note_io st.sched tid;
        continue_with (k len))
    | Sys_close (fd, k) ->
      Hashtbl.remove st.fds fd;
      continue_with (k ())
    | Random_int (bound, k) -> continue_with (k (Rng.int st.rng bound)))

let run_loop st =
  while st.live > 0 do
    match Scheduler.next st.sched with
    | None ->
      let blocked =
        Vec.fold_left
          (fun acc th -> if th.exited then acc else th.tid :: acc)
          [] st.threads
      in
      fail "deadlock: threads %s are blocked"
        (String.concat "," (List.map string_of_int (List.rev blocked)))
    | Some tid -> (
      let th = thread st tid in
      match th.prog with
      | None -> () (* woken and re-parked stale entry: skip *)
      | Some _ ->
        if st.current <> tid then begin
          emit_plain st Batch.tag_switch_thread tid;
          st.current <- tid
        end;
        let slice = Scheduler.slice st.sched in
        let budget = ref slice in
        let running = ref true in
        (* [must_yield] ends the slice right after an async I/O submit:
           the thread parks on the completion queue in [requeue]. *)
        while !running && !budget > 0 && not (Scheduler.must_yield st.sched) do
          decr budget;
          running := step st th
        done;
        (* Preempted mid-run: back to the scheduler's queues. *)
        if th.prog <> None && not th.exited then Scheduler.requeue st.sched tid)
  done

let setup config flush =
  let rng = Rng.create config.seed in
  {
    cfg = config;
    batch = Batch.create ();
    flush;
    routines = Routine_table.create ();
    rng;
    sched = Scheduler.create config.scheduler (Rng.split rng);
    memory = Hashtbl.create 4096;
    next_addr = 0x1000;
    free_list = [];
    allocated = 0;
    high_water = 0;
    threads = Vec.create ();
    live = 0;
    sync_ids = 1;
    sems = Hashtbl.create 16;
    bars = Hashtbl.create 16;
    fds = Hashtbl.create 16;
    next_fd = 3;
    device_table = config.devices;
    events = 0;
    current = -1;
  }

(* [make_flush] receives the (initially empty) routine intern table
   before the first event fires, so an online tool can resolve routine
   ids to names while the workload executes: the interpreter interns a
   name before emitting the corresponding [Call]. *)
let run_internal config threads ~trace make_flush =
  if threads = [] then invalid_arg "Interp.run: no threads";
  let flush = ref (fun (_ : Batch.t) -> ()) in
  let st = setup config (fun b -> !flush b) in
  flush := make_flush st.routines;
  List.iter (fun body -> ignore (new_thread st (Program.to_prog body))) threads;
  run_loop st;
  emit_flush st;
  { trace; routines = st.routines;
    threads_spawned = Vec.length st.threads;
    memory_high_water = st.high_water; events_emitted = st.events }

let run_batched config threads ~tool =
  run_internal config threads ~trace:(Trace.create ()) tool

let run config threads =
  let trace = Trace.create () in
  run_internal config threads ~trace (fun _ -> Trace.add_batch trace)
