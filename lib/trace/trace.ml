module Vec = Aprof_util.Vec
module Batch = Event.Batch

(* Every sealed batch holds exactly [chunk] events, so event [i] is row
   [i mod chunk] of batch [i / chunk] (the tail when that batch is not
   sealed yet).  The tail starts small and grows to [chunk] by doubling,
   so a short trace does not pay for a whole batch. *)
let chunk = Batch.default_capacity

type t = {
  sealed : Batch.t Vec.t;
  mutable tail : Batch.t;
  mutable length : int;
}

let create () =
  { sealed = Vec.create (); tail = Batch.create ~capacity:64 (); length = 0 }

let length t = t.length

(* Room for at least one more event in the tail: seal a full [chunk]
   tail, or regrow a smaller one towards [want] more events. *)
let make_room t ~want =
  let tail = t.tail in
  if Batch.is_full tail then begin
    let cap = Batch.capacity tail in
    if cap >= chunk then begin
      Vec.push t.sealed tail;
      t.tail <- Batch.create ~capacity:chunk ()
    end
    else begin
      let bigger =
        Batch.create ~capacity:(min chunk (max (2 * cap) (cap + want))) ()
      in
      Batch.append bigger tail ~pos:0 ~len:cap;
      t.tail <- bigger
    end
  end

let push t ev =
  make_room t ~want:1;
  Batch.push t.tail ev;
  t.length <- t.length + 1

let add_batch t b =
  let n = Batch.length b in
  let pos = ref 0 in
  while !pos < n do
    make_room t ~want:(n - !pos);
    let tail = t.tail in
    let k = min (n - !pos) (Batch.capacity tail - Batch.length tail) in
    Batch.append tail b ~pos:!pos ~len:k;
    pos := !pos + k
  done;
  t.length <- t.length + n

let replay t f =
  Vec.iter f t.sealed;
  if not (Batch.is_empty t.tail) then f t.tail

let batch_of t k =
  if k < Vec.length t.sealed then Vec.get t.sealed k else t.tail

let iter_raw t ~pos ~len f =
  if pos < 0 || len < 0 || pos + len > t.length then
    invalid_arg "Trace.iter_raw: range out of bounds";
  let stop = pos + len in
  let i = ref pos in
  while !i < stop do
    let k = !i / chunk in
    let b = batch_of t k in
    let base = k * chunk in
    let tags = Batch.tags b and tids = Batch.tids b in
    let args = Batch.args b and lens = Batch.lens b in
    for j = !i - base to min stop (base + Batch.length b) - base - 1 do
      f tags.(j) tids.(j) args.(j) lens.(j)
    done;
    i := min stop (base + Batch.length b)
  done

let get t i =
  if i < 0 || i >= t.length then
    invalid_arg
      (Printf.sprintf "Trace.get: index %d out of bounds [0,%d)" i t.length);
  Batch.get (batch_of t (i / chunk)) (i mod chunk)

let iter f t = replay t (Batch.iter_events f)

let iteri f t =
  let i = ref 0 in
  iter
    (fun ev ->
      f !i ev;
      incr i)
    t

let of_list events =
  let t = create () in
  List.iter (push t) events;
  t

let to_list t =
  let acc = ref [] in
  iter (fun ev -> acc := ev :: !acc) t;
  List.rev !acc

let well_formed (t : t) =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let depth : (int, int ref) Hashtbl.t = Hashtbl.create 8 in
  let exited : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let depth_of tid =
    match Hashtbl.find_opt depth tid with
    | Some d -> d
    | None ->
      let d = ref 0 in
      Hashtbl.add depth tid d;
      d
  in
  iteri
    (fun pos ev ->
      let tid = Event.tid ev in
      if Hashtbl.mem exited tid && not (Event.is_switch ev) then
        err "event %d: thread %d acts after exit" pos tid;
      match ev with
      | Event.Call _ -> incr (depth_of tid)
      | Event.Return _ ->
        let d = depth_of tid in
        if !d <= 0 then err "event %d: return with empty call stack in thread %d" pos tid
        else decr d
      | Event.Read { addr; _ } | Event.Write { addr; _ } ->
        if addr < 0 then err "event %d: negative address" pos
      | Event.User_to_kernel { addr; len; _ }
      | Event.Kernel_to_user { addr; len; _ }
      | Event.Alloc { addr; len; _ }
      | Event.Free { addr; len; _ } ->
        if addr < 0 then err "event %d: negative address" pos;
        if len <= 0 then err "event %d: non-positive length" pos
      | Event.Block { units; _ } ->
        if units < 0 then err "event %d: negative block units" pos
      | Event.Thread_exit _ -> Hashtbl.replace exited tid ()
      | Event.Thread_start _ | Event.Acquire _ | Event.Release _
      | Event.Switch_thread _ ->
        ())
    t;
  Hashtbl.iter
    (fun tid d -> if !d <> 0 then err "thread %d: %d unbalanced calls" tid !d)
    depth;
  List.rev !errors

type stats = {
  events : int;
  calls : int;
  reads : int;
  writes : int;
  blocks : int;
  block_units : int;
  user_to_kernel : int;
  kernel_to_user : int;
  switches : int;
  threads : int;
  max_call_depth : int;
  distinct_addresses : int;
}

let stats (t : t) =
  let calls = ref 0
  and reads = ref 0
  and writes = ref 0
  and blocks = ref 0
  and block_units = ref 0
  and u2k = ref 0
  and k2u = ref 0
  and switches = ref 0 in
  let threads = Hashtbl.create 8 in
  let addresses = Hashtbl.create 1024 in
  let depth = Hashtbl.create 8 in
  let max_depth = ref 0 in
  let touch_addr a = if not (Hashtbl.mem addresses a) then Hashtbl.add addresses a () in
  iter
    (fun ev ->
      if not (Event.is_switch ev) then Hashtbl.replace threads (Event.tid ev) ();
      match ev with
      | Event.Call { tid; _ } ->
        incr calls;
        let d = 1 + (Option.value ~default:0 (Hashtbl.find_opt depth tid)) in
        Hashtbl.replace depth tid d;
        if d > !max_depth then max_depth := d
      | Event.Return { tid } ->
        let d = Option.value ~default:0 (Hashtbl.find_opt depth tid) in
        Hashtbl.replace depth tid (d - 1)
      | Event.Read { addr; _ } ->
        incr reads;
        touch_addr addr
      | Event.Write { addr; _ } ->
        incr writes;
        touch_addr addr
      | Event.Block { units; _ } ->
        incr blocks;
        block_units := !block_units + units
      | Event.User_to_kernel { addr; len; _ } ->
        incr u2k;
        for a = addr to addr + len - 1 do
          touch_addr a
        done
      | Event.Kernel_to_user { addr; len; _ } ->
        incr k2u;
        for a = addr to addr + len - 1 do
          touch_addr a
        done
      | Event.Switch_thread _ -> incr switches
      | Event.Acquire _ | Event.Release _ | Event.Alloc _ | Event.Free _
      | Event.Thread_start _ | Event.Thread_exit _ ->
        ())
    t;
  {
    events = t.length;
    calls = !calls;
    reads = !reads;
    writes = !writes;
    blocks = !blocks;
    block_units = !block_units;
    user_to_kernel = !u2k;
    kernel_to_user = !k2u;
    switches = !switches;
    threads = Hashtbl.length threads;
    max_call_depth = !max_depth;
    distinct_addresses = Hashtbl.length addresses;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>events: %d@ calls: %d@ reads: %d@ writes: %d@ blocks: %d (%d units)@ \
     userToKernel: %d@ kernelToUser: %d@ switches: %d@ threads: %d@ \
     max call depth: %d@ distinct addresses: %d@]"
    s.events s.calls s.reads s.writes s.blocks s.block_units s.user_to_kernel
    s.kernel_to_user s.switches s.threads s.max_call_depth s.distinct_addresses
