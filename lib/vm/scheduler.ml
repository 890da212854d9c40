module Rng = Aprof_util.Rng
module Vec = Aprof_util.Vec

(* The [Work_stealing] policy's per-core deque: a ring buffer, owner
   LIFO at the newest end, thieves taking the oldest half.  The VM is
   single-threaded, so it needs no lock. *)
module Deque = struct
  type 'a t = {
    mutable buf : 'a option array;
    mutable head : int; (* index of the oldest item *)
    mutable len : int;
  }

  let create () = { buf = Array.make 8 None; head = 0; len = 0 }

  let grow t =
    let cap = Array.length t.buf in
    let buf = Array.make (cap * 2) None in
    for i = 0 to t.len - 1 do
      buf.(i) <- t.buf.((t.head + i) mod cap)
    done;
    t.buf <- buf;
    t.head <- 0

  let push t x =
    if t.len = Array.length t.buf then grow t;
    t.buf.((t.head + t.len) mod Array.length t.buf) <- Some x;
    t.len <- t.len + 1

  let pop t =
    if t.len = 0 then None
    else begin
      let i = (t.head + t.len - 1) mod Array.length t.buf in
      let x = t.buf.(i) in
      t.buf.(i) <- None;
      t.len <- t.len - 1;
      x
    end

  (* Manticore's steal-half: the oldest ceil(len/2) items, oldest
     first. *)
  let steal_half t =
    let k = (t.len + 1) / 2 in
    let out = ref [] in
    for i = k - 1 downto 0 do
      let j = (t.head + i) mod Array.length t.buf in
      (match t.buf.(j) with
      | Some x -> out := x :: !out
      | None -> assert false);
      t.buf.(j) <- None
    done;
    t.head <- (t.head + k) mod Array.length t.buf;
    t.len <- t.len - k;
    !out

  let length t = t.len
end

type policy =
  | Round_robin of { slice : int }
  | Random_preemptive of { min_slice : int; max_slice : int }
  | Serialized
  | Work_stealing of { workers : int; slice : int }
  | Async_io of { slice : int; io_delay : int }

(* The serialized sentinel: effectively unbounded for any real run
   (default event budget is 50M), but far enough from [max_int] that
   adding a slice to a consumed-event counter can never overflow. *)
let max_slice = 1 lsl 30

type ws_state = {
  queues : int Deque.t array;
  mutable turn : int; (* the virtual core scheduled this round *)
  mutable running_worker : int; (* core that popped the current thread *)
  mutable ws_queued : int; (* threads sitting in some deque *)
}

type async_state = {
  run_q : int Queue.t;
  (* Completion queue, sorted by (wake turn, submission seq): threads
     parked after submitting I/O, woken in deadline order. *)
  mutable parked : (int * int * int) list;
  mutable now : int; (* scheduling turns elapsed *)
  mutable seq : int;
  mutable io_pending : bool; (* running thread submitted I/O this slice *)
  io_delay : int;
}

type queues =
  | Fifo of int Queue.t (* Round_robin, Serialized *)
  | Bag of int Vec.t (* Random_preemptive: FIFO order, random removal *)
  | Ws of ws_state
  | Async of async_state

type t = { policy : policy; rng : Rng.t; q : queues }

let check_slice what s =
  if s <= 0 || s > max_slice then
    invalid_arg (Printf.sprintf "Scheduler: %s out of (0, 2^30]" what)

let create policy rng =
  let q =
    match policy with
    | Round_robin { slice } ->
      check_slice "slice" slice;
      Fifo (Queue.create ())
    | Serialized -> Fifo (Queue.create ())
    | Random_preemptive { min_slice; max_slice = hi } ->
      check_slice "min_slice" min_slice;
      check_slice "max_slice" hi;
      if hi < min_slice then invalid_arg "Scheduler: bad slice range";
      Bag (Vec.create ())
    | Work_stealing { workers; slice } ->
      check_slice "slice" slice;
      if workers < 2 then invalid_arg "Scheduler: work stealing needs >= 2 workers";
      Ws
        {
          queues = Array.init workers (fun _ -> Deque.create ());
          turn = 0;
          running_worker = 0;
          ws_queued = 0;
        }
    | Async_io { slice; io_delay } ->
      check_slice "slice" slice;
      if io_delay < 1 then invalid_arg "Scheduler: io_delay must be >= 1";
      Async
        {
          run_q = Queue.create ();
          parked = [];
          now = 0;
          seq = 0;
          io_pending = false;
          io_delay;
        }
  in
  { policy; rng; q }

let slice t =
  match t.policy with
  | Round_robin { slice } | Work_stealing { slice; _ } | Async_io { slice; _ }
    ->
    slice
  | Random_preemptive { min_slice; max_slice } ->
    Rng.int_in t.rng min_slice max_slice
  | Serialized -> max_slice

let enqueue t tid =
  match t.q with
  | Fifo q -> Queue.add tid q
  | Bag v -> Vec.push v tid
  | Ws s ->
    (* Home placement: spawn/wake locality by tid. *)
    Deque.push s.queues.(tid mod Array.length s.queues) tid;
    s.ws_queued <- s.ws_queued + 1
  | Async a -> Queue.add tid a.run_q

let park_sorted a entry =
  let rec ins = function
    | [] -> [ entry ]
    | e :: rest -> if entry < e then entry :: e :: rest else e :: ins rest
  in
  a.parked <- ins a.parked

let requeue t tid =
  match t.q with
  | Fifo q -> Queue.add tid q
  | Bag v -> Vec.push v tid
  | Ws s ->
    (* A preempted thread stays on the core that ran it; idle cores pull
       it over by stealing the old end of this deque. *)
    Deque.push s.queues.(s.running_worker) tid;
    s.ws_queued <- s.ws_queued + 1
  | Async a ->
    if a.io_pending then begin
      a.io_pending <- false;
      let delay = Rng.int_in t.rng 1 a.io_delay in
      park_sorted a (a.now + delay, a.seq, tid);
      a.seq <- a.seq + 1
    end
    else Queue.add tid a.run_q

(* Order-preserving removal: the random-preemptive bag keeps FIFO order
   between draws so that, e.g., two wakeups of the same semaphore stay
   in post order.  Thread counts are small; O(n) shift is noise. *)
let bag_remove v i =
  let x = Vec.get v i in
  let last = Vec.length v - 1 in
  for j = i to last - 1 do
    Vec.set v j (Vec.get v (j + 1))
  done;
  Vec.truncate v last;
  x

let ws_next t s =
  if s.ws_queued = 0 then None
  else begin
    let workers = Array.length s.queues in
    let w = s.turn in
    (* Cores are time-multiplexed round-robin onto the single VM loop:
       each scheduling turn belongs to the next virtual core. *)
    s.turn <- (s.turn + 1) mod workers;
    let tid =
      match Deque.pop s.queues.(w) with
      | Some tid -> tid
      | None ->
        (* Empty deque: steal the oldest half of the first non-empty
           victim, scanning from a seeded-random start.  ws_queued > 0
           and our own deque is empty, so a victim must exist. *)
        let start = Rng.int t.rng workers in
        let stolen = ref [] in
        let k = ref 0 in
        while !stolen = [] && !k < workers do
          let v = (start + !k) mod workers in
          if v <> w then
            (match Deque.steal_half s.queues.(v) with
            | [] -> ()
            | xs -> stolen := xs);
          incr k
        done;
        (match !stolen with
        | [] -> assert false
        | xs ->
          List.iter (Deque.push s.queues.(w)) xs;
          (match Deque.pop s.queues.(w) with
          | Some tid -> tid
          | None -> assert false))
    in
    s.running_worker <- w;
    s.ws_queued <- s.ws_queued - 1;
    Some tid
  end

let async_next a =
  a.io_pending <- false;
  a.now <- a.now + 1;
  let release () =
    let rec go = function
      | (wake, _, tid) :: rest when wake <= a.now ->
        Queue.add tid a.run_q;
        go rest
      | rest -> a.parked <- rest
    in
    go a.parked
  in
  release ();
  if Queue.is_empty a.run_q then
    (* Everyone is waiting on I/O: fast-forward the event loop to the
       earliest completion instead of reporting a deadlock. *)
    match a.parked with
    | [] -> None
    | (wake, _, _) :: _ ->
      a.now <- wake;
      release ();
      Queue.take_opt a.run_q
  else Queue.take_opt a.run_q

let next t =
  match t.q with
  | Fifo q -> Queue.take_opt q
  | Bag v ->
    if Vec.is_empty v then None
    else Some (bag_remove v (Rng.int t.rng (Vec.length v)))
  | Ws s -> ws_next t s
  | Async a -> async_next a

let pending t =
  match t.q with
  | Fifo q -> Queue.length q
  | Bag v -> Vec.length v
  | Ws s -> s.ws_queued
  | Async a -> Queue.length a.run_q + List.length a.parked

let note_io t _tid =
  match t.q with Async a -> a.io_pending <- true | Fifo _ | Bag _ | Ws _ -> ()

let must_yield t =
  match t.q with Async a -> a.io_pending | Fifo _ | Bag _ | Ws _ -> false

let policy_name = function
  | Round_robin { slice } -> Printf.sprintf "round-robin(%d)" slice
  | Random_preemptive { min_slice; max_slice } ->
    Printf.sprintf "random(%d-%d)" min_slice max_slice
  | Serialized -> "serialized"
  | Work_stealing { workers; slice } ->
    Printf.sprintf "work-stealing(%dw,%d)" workers slice
  | Async_io { slice; io_delay } ->
    Printf.sprintf "async-io(%d,d%d)" slice io_delay
