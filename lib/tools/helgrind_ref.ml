(* The original vector-clock race detector, kept verbatim as the test
   oracle for the epoch-based {!Helgrind_lite}: one full [Vclock.t] read
   vector and a boxed lockset per cell, a hashtable from address to
   cell.  Slow (it is the reason the epoch rewrite exists) but simple
   enough to audit, and the differential suite pins the production
   detector's race reports to this one's on random programs. *)

module Event = Aprof_trace.Event

type race = {
  addr : int;
  kind : [ `Write_write | `Read_write | `Write_read ];
  prev_tid : int;
  tid : int;
}

type cell = {
  mutable wtid : int; (* last writer, -1 if none *)
  mutable wclk : int; (* last writer's clock at the write *)
  reads : Vclock.t; (* per-thread clock of the latest read *)
  mutable lockset : int list; (* Eraser candidate set; [-1] means virgin *)
}

type t = {
  thread_clocks : (int, Vclock.t) Hashtbl.t;
  sync_clocks : (int, Vclock.t) Hashtbl.t;
  cells : (int, cell) Hashtbl.t;
  held : (int, int list ref) Hashtbl.t; (* locks currently held per thread *)
  mutable lockset_empty : int; (* cells whose candidate set drained *)
  mutable race_list : race list;
  seen : (int * [ `Write_write | `Read_write | `Write_read ], unit) Hashtbl.t;
}

let create () =
  {
    thread_clocks = Hashtbl.create 8;
    sync_clocks = Hashtbl.create 32;
    cells = Hashtbl.create 4096;
    held = Hashtbl.create 8;
    lockset_empty = 0;
    race_list = [];
    seen = Hashtbl.create 64;
  }

let thread_clock t tid =
  match Hashtbl.find_opt t.thread_clocks tid with
  | Some c -> c
  | None ->
    let c = Vclock.create () in
    ignore (Vclock.tick c tid);
    Hashtbl.add t.thread_clocks tid c;
    c

let sync_clock t id =
  match Hashtbl.find_opt t.sync_clocks id with
  | Some c -> c
  | None ->
    let c = Vclock.create () in
    Hashtbl.add t.sync_clocks id c;
    c

let cell t addr =
  match Hashtbl.find_opt t.cells addr with
  | Some c -> c
  | None ->
    let c = { wtid = -1; wclk = 0; reads = Vclock.create (); lockset = [ -1 ] } in
    Hashtbl.add t.cells addr c;
    c

let held_locks t tid =
  match Hashtbl.find_opt t.held tid with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.add t.held tid l;
    l

let refine_lockset t tid c =
  let held = !(held_locks t tid) in
  let before = c.lockset in
  (match before with
  | [ -1 ] -> c.lockset <- held
  | locks -> c.lockset <- List.filter (fun l -> List.mem l held) locks);
  if c.lockset = [] && before <> [] then t.lockset_empty <- t.lockset_empty + 1

let report t addr kind prev_tid tid =
  let key = (addr, kind) in
  if not (Hashtbl.mem t.seen key) then begin
    Hashtbl.add t.seen key ();
    t.race_list <- { addr; kind; prev_tid; tid } :: t.race_list
  end

let on_write t tid addr =
  let c = cell t addr in
  refine_lockset t tid c;
  let clk = thread_clock t tid in
  (* write-write: previous write must happen-before this one. *)
  if c.wtid >= 0 && c.wtid <> tid && c.wclk > Vclock.get clk c.wtid then
    report t addr `Write_write c.wtid tid;
  (* read-write: every previous read must happen-before this write. *)
  if not (Vclock.leq c.reads clk) then begin
    let offender = ref tid in
    for rtid = 0 to Vclock.size c.reads - 1 do
      if rtid <> tid && Vclock.get c.reads rtid > Vclock.get clk rtid then
        offender := rtid
    done;
    report t addr `Read_write !offender tid
  end;
  c.wtid <- tid;
  c.wclk <- Vclock.get clk tid;
  (* writes subsume reads: restart read tracking *)
  for rtid = 0 to Vclock.size c.reads - 1 do
    Vclock.set c.reads rtid 0
  done

let on_read t tid addr =
  let c = cell t addr in
  refine_lockset t tid c;
  let clk = thread_clock t tid in
  if c.wtid >= 0 && c.wtid <> tid && c.wclk > Vclock.get clk c.wtid then
    report t addr `Write_read c.wtid tid;
  Vclock.set c.reads tid (Vclock.get clk tid)

(* The oracle's private per-event core; its speed does not matter. *)
let step t = function
  | Event.Read { tid; addr } -> on_read t tid addr
  | Event.Write { tid; addr } -> on_write t tid addr
  | Event.Kernel_to_user { tid; addr; len } ->
    for a = addr to addr + len - 1 do
      on_write t tid a
    done
  | Event.User_to_kernel { tid; addr; len } ->
    for a = addr to addr + len - 1 do
      on_read t tid a
    done
  | Event.Release { tid; lock } ->
    let clk = thread_clock t tid in
    Vclock.join (sync_clock t lock) clk;
    ignore (Vclock.tick clk tid);
    let held = held_locks t tid in
    held := List.filter (fun l -> l <> lock) !held
  | Event.Acquire { tid; lock } ->
    Vclock.join (thread_clock t tid) (sync_clock t lock);
    let held = held_locks t tid in
    if not (List.mem lock !held) then held := lock :: !held
  | Event.Thread_start { tid } -> ignore (thread_clock t tid)
  | Event.Call _ | Event.Return _ | Event.Block _ | Event.Alloc _
  | Event.Free _ | Event.Thread_exit _ | Event.Switch_thread _ ->
    ()

let on_batch t b = Event.Batch.iter_events (step t) b

let races t = List.rev t.race_list
