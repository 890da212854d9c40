(* FastTrack-style happens-before race detection: the per-cell state is
   packed epochs instead of full vector clocks.

   An epoch is one immediate int, [clk lsl tid_bits lor tid] — a thread
   id and that thread's clock component at the access.  Each shadow cell
   holds the last-write epoch and a read state that is an epoch in the
   common case, promoted to a full [Vclock.t] only when genuinely
   concurrent reads are observed (and demoted back at the next write).
   The dominant access patterns — a thread re-reading or re-writing data
   it already touched this epoch — exit after two loads and a compare,
   without touching vector clocks, locksets, or hashtables.

   The cell store is the {!Shadow_memory} page table: the shadow word at
   an address is (arena index + 1), and the arena is three parallel int
   arrays (write epoch, read state, lockset id), so a cell costs three
   words instead of a boxed record + hashtable bucket + clock vectors.
   Locksets are hash-consed in a {!Lockset} table: candidate sets are
   small int ids and the Eraser refinement is a memoized intersection.

   Equivalence with the full-vector-clock oracle ({!Helgrind_ref}): the
   epoch read state prunes exactly the reads that happen-before a
   retained read, and by vector-clock transitivity a pruned read can
   only race with a later write when its dominator does too — so races
   are detected at the same events, with the same (addr, kind, accessor)
   triples; the differential suite pins this on random programs.  The
   same-epoch exits skip the Eraser lockset refinement: a same-epoch
   access adds no happens-before information, and with an unchanged held
   set no lockset information either, so only the reported
   drained-lockset count can differ from refine-on-every-access, never a
   race. *)

module Event = Aprof_trace.Event
module Shadow = Aprof_shadow.Shadow_memory
module Vec = Aprof_util.Vec

type race = {
  addr : int;
  kind : [ `Write_write | `Read_write | `Write_read ];
  prev_tid : int;
  tid : int;
}

let kind_name = function
  | `Write_write -> "write-write"
  | `Read_write -> "read-write"
  | `Write_read -> "write-read"

let pp_race ppf r =
  Format.fprintf ppf "%s race on %#x between threads %d and %d"
    (kind_name r.kind) r.addr r.prev_tid r.tid

(* 16 bits of thread id leave 46 clock bits on 64-bit ints: a thread
   would need 2^46 release operations to overflow. *)
let tid_bits = 16
let tid_mask = (1 lsl tid_bits) - 1
let max_tid = tid_mask

(* The decode edge (Event.Batch.validate, Event.of_line) enforces the
   same bound, so no decoded trace can reach the range check in
   [thread] — only direct API callers can. *)
let () = assert (max_tid = Event.max_tid)

type thread = {
  clk : Vclock.t;
  mutable held : int; (* interned id of the locks currently held *)
}

(* Cell lockset ids, stored in [ls]: [-1] marks a virgin cell whose
   Eraser candidate set is still "all locks". *)
let ls_virgin = -1

type t = {
  shadow : Shadow.t; (* addr -> cell-arena index + 1, 0 = no cell *)
  (* The cell arena, three ints per cell.  [w] is the last-write epoch
     (0 = never written); [r] is 0 (no reads since the last write), a
     packed epoch (> 0, single last read), or [-(vid + 1)] naming a
     promoted read vector in [rvecs]. *)
  mutable w : int array;
  mutable r : int array;
  mutable ls : int array;
  mutable ncells : int;
  rvecs : Vclock.t Vec.t; (* promoted read vectors *)
  free_rvecs : int Vec.t; (* recycled [rvecs] slots, zeroed *)
  mutable promotions : int; (* lifetime count, for the summary *)
  (* Per-thread state, dense by tid.  [epochs.(tid)] caches the packed
     epoch of thread [tid] (0 = thread unseen) so the same-epoch exits
     never dereference the thread record. *)
  mutable epochs : int array;
  mutable threads : thread option array;
  sync_clocks : (int, Vclock.t) Hashtbl.t;
  locks : Lockset.t;
  mutable drained : int; (* cells whose candidate lockset emptied *)
  mutable race_count : int;
  mutable race_list : race list;
  seen : (int, unit) Hashtbl.t; (* (addr lsl 2) lor kind-code *)
}

type state = t

let name = "helgrind"

let create () =
  {
    shadow = Shadow.create ();
    w = Array.make 4096 0;
    r = Array.make 4096 0;
    ls = Array.make 4096 ls_virgin;
    ncells = 0;
    rvecs = Vec.create ();
    free_rvecs = Vec.create ();
    promotions = 0;
    epochs = Array.make 16 0;
    threads = Array.make 16 None;
    sync_clocks = Hashtbl.create 32;
    locks = Lockset.create ();
    drained = 0;
    race_count = 0;
    race_list = [];
    seen = Hashtbl.create 64;
  }

let thread t tid =
  if tid < 0 || tid > max_tid then
    invalid_arg (Printf.sprintf "Helgrind_lite: thread id %d out of range" tid);
  if tid >= Array.length t.epochs then begin
    let n = Array.length t.epochs in
    let n' = max (tid + 1) (2 * n) in
    let epochs = Array.make n' 0 in
    Array.blit t.epochs 0 epochs 0 n;
    t.epochs <- epochs;
    let threads = Array.make n' None in
    Array.blit t.threads 0 threads 0 n;
    t.threads <- threads
  end;
  match t.threads.(tid) with
  | Some th -> th
  | None ->
    let clk = Vclock.create () in
    ignore (Vclock.tick clk tid);
    let th = { clk; held = Lockset.empty } in
    t.threads.(tid) <- Some th;
    t.epochs.(tid) <- (1 lsl tid_bits) lor tid;
    th

let sync_clock t id =
  match Hashtbl.find_opt t.sync_clocks id with
  | Some c -> c
  | None ->
    let c = Vclock.create () in
    Hashtbl.add t.sync_clocks id c;
    c

let kind_code = function `Write_write -> 0 | `Read_write -> 1 | `Write_read -> 2

let report t addr kind prev_tid tid =
  let key = (addr lsl 2) lor kind_code kind in
  if not (Hashtbl.mem t.seen key) then begin
    Hashtbl.add t.seen key ();
    t.race_count <- t.race_count + 1;
    t.race_list <- { addr; kind; prev_tid; tid } :: t.race_list
  end

(* Eraser refinement, on slow-path accesses: the candidate set shrinks
   to its intersection with the locks held now.  Fast outs for the two
   ubiquitous cases (set already drained; set equals the held set) keep
   the memo table out of steady-state loops. *)
let refine t i held =
  let old = Array.unsafe_get t.ls i in
  if old <> held && old <> Lockset.empty then begin
    let nw = if old = ls_virgin then held else Lockset.inter t.locks old held in
    if nw <> old then begin
      Array.unsafe_set t.ls i nw;
      if nw = Lockset.empty then t.drained <- t.drained + 1
    end
  end

let new_cell t addr =
  let i = t.ncells in
  if i = Array.length t.w then begin
    let n' = 2 * i in
    let grow a fill =
      let a' = Array.make n' fill in
      Array.blit a 0 a' 0 i;
      a'
    in
    t.w <- grow t.w 0;
    t.r <- grow t.r 0;
    t.ls <- grow t.ls ls_virgin
  end;
  t.ncells <- i + 1;
  Shadow.set t.shadow addr (i + 1);
  i

let rvec t id = Vec.get t.rvecs id

let alloc_rvec t =
  t.promotions <- t.promotions + 1;
  if Vec.is_empty t.free_rvecs then begin
    Vec.push t.rvecs (Vclock.create ());
    Vec.length t.rvecs - 1
  end
  else Vec.pop t.free_rvecs

let free_rvec t id =
  Vclock.reset (rvec t id);
  Vec.push t.free_rvecs id

(* ----- the slow paths -------------------------------------------------- *)

let read_slow t tid i addr =
  let th = thread t tid in
  refine t i th.held;
  let clk = th.clk in
  let w0 = Array.unsafe_get t.w i in
  (if w0 <> 0 then begin
     let wt = w0 land tid_mask in
     if wt <> tid && w0 lsr tid_bits > Vclock.get clk wt then
       report t addr `Write_read wt tid
   end);
  let ep = t.epochs.(tid) in
  let re = Array.unsafe_get t.r i in
  if re = 0 then Array.unsafe_set t.r i ep
  else if re > 0 then begin
    let rt = re land tid_mask in
    (* A read that happens-before this one is subsumed: by clock
       transitivity it can only race with a later write when this read
       does too, so the epoch replaces it.  Genuinely concurrent reads
       promote to a vector. *)
    if rt = tid || re lsr tid_bits <= Vclock.get clk rt then
      Array.unsafe_set t.r i ep
    else begin
      let vid = alloc_rvec t in
      let v = rvec t vid in
      Vclock.set v rt (re lsr tid_bits);
      Vclock.set v tid (Vclock.get clk tid);
      Array.unsafe_set t.r i (-(vid + 1))
    end
  end
  else Vclock.set (rvec t (-re - 1)) tid (Vclock.get clk tid)

let write_slow t tid i addr =
  let th = thread t tid in
  refine t i th.held;
  let clk = th.clk in
  let w0 = Array.unsafe_get t.w i in
  (if w0 <> 0 then begin
     let wt = w0 land tid_mask in
     if wt <> tid && w0 lsr tid_bits > Vclock.get clk wt then
       report t addr `Write_write wt tid
   end);
  let re = Array.unsafe_get t.r i in
  (if re > 0 then begin
     let rt = re land tid_mask in
     if rt <> tid && re lsr tid_bits > Vclock.get clk rt then
       report t addr `Read_write rt tid
   end
   else if re < 0 then begin
     let vid = -re - 1 in
     let v = rvec t vid in
     (* The oracle's ascending scan keeps the last offender, i.e. the
        largest offending tid; mirror it so reports coincide. *)
     let offender = ref (-1) in
     for rtid = 0 to Vclock.size v - 1 do
       if rtid <> tid && Vclock.get v rtid > Vclock.get clk rtid then
         offender := rtid
     done;
     if !offender >= 0 then report t addr `Read_write !offender tid;
     (* Writes subsume reads: demote, recycling the vector. *)
     free_rvec t vid
   end);
  Array.unsafe_set t.w i t.epochs.(tid);
  Array.unsafe_set t.r i 0

(* ----- the hot paths --------------------------------------------------- *)

(* Arena indexes decoded from the shadow word are < ncells by
   construction, so the unsafe reads are in bounds; [epochs] is indexed
   only after explicit bounds checks on both ends — a negative or
   oversized tid falls through to the slow path, where [thread] rejects
   it — and 0 ("thread unseen") can never equal a nonzero cell state. *)

let on_read t tid addr =
  let idx = Shadow.get t.shadow addr in
  if idx = 0 then read_slow t tid (new_cell t addr) addr
  else begin
    let i = idx - 1 in
    let re = Array.unsafe_get t.r i in
    (* Read-same-epoch: the last read of this cell was by this thread in
       its current epoch.  No write intervened (a write zeroes [r]), the
       write-read verdict is monotone in the clock, and the read state
       update is idempotent — nothing observable is skipped. *)
    if
      re > 0
      && tid >= 0
      && tid < Array.length t.epochs
      && re = Array.unsafe_get t.epochs tid
    then ()
    else read_slow t tid i addr
  end

let on_write t tid addr =
  let idx = Shadow.get t.shadow addr in
  if idx = 0 then write_slow t tid (new_cell t addr) addr
  else begin
    let i = idx - 1 in
    (* Write-same-epoch: this thread already wrote this cell in its
       current epoch and nothing read it since, so the checks are
       vacuous and the update a no-op. *)
    if
      Array.unsafe_get t.r i = 0
      && tid >= 0
      && tid < Array.length t.epochs
      && Array.unsafe_get t.w i = Array.unsafe_get t.epochs tid
      && Array.unsafe_get t.w i <> 0
    then ()
    else write_slow t tid i addr
  end

let on_acquire t tid lock =
  let th = thread t tid in
  Vclock.join th.clk (sync_clock t lock);
  th.held <- Lockset.add t.locks th.held lock

let on_release t tid lock =
  let th = thread t tid in
  Vclock.join (sync_clock t lock) th.clk;
  let c = Vclock.tick th.clk tid in
  t.epochs.(tid) <- (c lsl tid_bits) lor tid;
  th.held <- Lockset.remove t.locks th.held lock

(* Packed-field dispatch for the batch pipeline; tag literals are
   {!Event.Batch}'s. *)
let on_raw t ~tag ~tid ~arg ~len =
  match tag with
  | 3 -> on_read t tid arg
  | 4 -> on_write t tid arg
  | 6 ->
    for a = arg to arg + len - 1 do
      on_read t tid a
    done
  | 7 ->
    for a = arg to arg + len - 1 do
      on_write t tid a
    done
  | 8 -> on_acquire t tid arg
  | 9 -> on_release t tid arg
  | 12 -> ignore (thread t tid)
  | _ -> ()

let on_batch t b =
  Event.Batch.iter (fun tag tid arg len -> on_raw t ~tag ~tid ~arg ~len) b

let races t = List.rev t.race_list

let space_words t =
  let rvec_words = ref 0 in
  Vec.iter (fun v -> rvec_words := !rvec_words + 2 + Vclock.size v) t.rvecs;
  let thread_words = ref (2 * Array.length t.epochs) in
  Array.iter
    (function
      | None -> ()
      | Some th -> thread_words := !thread_words + 4 + Vclock.size th.clk)
    t.threads;
  let sync_words =
    Hashtbl.fold (fun _ c acc -> acc + 3 + Vclock.size c) t.sync_clocks 0
  in
  (* Arena capacity (three int arrays), the shadow page table, promoted
     read vectors, locksets, thread and sync clocks. *)
  (3 * Array.length t.w)
  + Shadow.space_words t.shadow
  + !rvec_words + !thread_words + sync_words
  + Lockset.space_words t.locks

let summary t =
  Printf.sprintf
    "helgrind: %d races on %d cells (%d drained locksets, %d read-vector \
     promotions)"
    t.race_count t.ncells t.drained t.promotions

let render_report t =
  let buf = Buffer.create 256 in
  List.iter
    (fun r -> Buffer.add_string buf (Format.asprintf "%a@." pp_race r))
    (races t);
  Buffer.add_string buf (summary t);
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Lockset and epoch inference consume the global interleaving itself —
   which accesses fall between which acquire/release pairs — so the
   detector never shards within a trace. *)
let sharding = Tool.Global
