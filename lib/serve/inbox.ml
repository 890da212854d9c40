(* Bounded per-connection byte queue: the backpressure point between a
   connection's reader thread (producer) and the worker that decodes its
   bytes (consumer).

   The invariant is "never buffer unboundedly": [push] blocks while the
   queued payload exceeds [capacity], so a reader that outruns its
   worker stops calling [read] and the kernel socket buffer — and then
   the peer — absorbs the pressure.  A queue that is empty always
   accepts one slice regardless of size, so capacity can never deadlock
   a producer.

   Consumers never block here ([pop] is non-blocking): the server's
   scheduler wakes a worker when a connection becomes runnable, and the
   worker drains whatever is queued.  Slices come from a [pool] and go
   back to it: one per daemon, so a slice a finished connection gave
   back serves the next connection's reader, and steady-state ingest
   allocates no fresh slices. *)

type item = Data of Bytes.t * int | Eof

type pool = { buffer_bytes : int; idle : Bytes.t Aprof_util.Pool.t }

let pool ~buffer_bytes ~max_idle =
  if buffer_bytes < 1 || max_idle < 0 then invalid_arg "Inbox.pool";
  { buffer_bytes; idle = Aprof_util.Pool.create ~max_idle }

(* Wrong-sized slices (none today) are simply not kept. *)
let give p b =
  if Bytes.length b = p.buffer_bytes then Aprof_util.Pool.give p.idle b

let take p =
  match Aprof_util.Pool.take p.idle with
  | Some b -> b
  | None -> Bytes.create p.buffer_bytes

type t = {
  capacity : int;  (* max queued payload bytes once non-empty *)
  pool : pool;
  q : item Queue.t;
  m : Mutex.t;
  not_full : Condition.t;
  mutable bytes : int;
  mutable closed : bool;
}

let create ?(capacity = 256 * 1024) pool =
  if capacity < 1 then invalid_arg "Inbox.create";
  {
    capacity;
    pool;
    q = Queue.create ();
    m = Mutex.create ();
    not_full = Condition.create ();
    bytes = 0;
    closed = false;
  }

let take_buffer t = take t.pool
let recycle t b = give t.pool b

(* Blocks while the queue is non-empty and over capacity; gives the
   slice back to the pool once the consumer side has closed (the
   connection is dead — nothing downstream will ever pop again). *)
let push t b n =
  Mutex.lock t.m;
  while (not t.closed) && t.bytes > 0 && t.bytes + n > t.capacity do
    Condition.wait t.not_full t.m
  done;
  let closed = t.closed in
  if not closed then begin
    Queue.push (Data (b, n)) t.q;
    t.bytes <- t.bytes + n
  end;
  Mutex.unlock t.m;
  if closed then give t.pool b

let push_eof t =
  Mutex.lock t.m;
  if not t.closed then Queue.push Eof t.q;
  Mutex.unlock t.m

let pop t =
  Mutex.lock t.m;
  let item =
    if Queue.is_empty t.q then None
    else begin
      let it = Queue.pop t.q in
      (match it with
      | Data (_, n) ->
        t.bytes <- t.bytes - n;
        Condition.signal t.not_full
      | Eof -> ());
      Some it
    end
  in
  Mutex.unlock t.m;
  item

let close t =
  Mutex.lock t.m;
  t.closed <- true;
  let queued = Queue.fold (fun acc it -> it :: acc) [] t.q in
  Queue.clear t.q;
  t.bytes <- 0;
  Condition.broadcast t.not_full;
  Mutex.unlock t.m;
  List.iter (function Data (b, _) -> give t.pool b | Eof -> ()) queued

let queued_bytes t =
  Mutex.lock t.m;
  let n = t.bytes in
  Mutex.unlock t.m;
  n

let is_empty t =
  Mutex.lock t.m;
  let e = Queue.is_empty t.q in
  Mutex.unlock t.m;
  e
