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
   worker drains whatever is queued.  Buffers are recycled through a
   free list so steady-state ingest allocates no fresh slices. *)

type item = Data of Bytes.t * int | Eof

type t = {
  capacity : int;  (* max queued payload bytes once non-empty *)
  buffer_bytes : int;  (* size of the recycled read slices *)
  q : item Queue.t;
  free : Bytes.t Queue.t;
  m : Mutex.t;
  not_full : Condition.t;
  mutable bytes : int;
  mutable closed : bool;
}

let create ?(capacity = 256 * 1024) ?(buffer_bytes = 64 * 1024) () =
  if capacity < 1 || buffer_bytes < 1 then invalid_arg "Inbox.create";
  {
    capacity;
    buffer_bytes;
    q = Queue.create ();
    free = Queue.create ();
    m = Mutex.create ();
    not_full = Condition.create ();
    bytes = 0;
    closed = false;
  }

(* A buffer for the next [read]: recycled when the consumer returned
   one, fresh otherwise.  Wrong-sized recycled buffers (none today) are
   simply not handed out. *)
let take_buffer t =
  Mutex.lock t.m;
  let b =
    if Queue.is_empty t.free then Bytes.create t.buffer_bytes
    else Queue.pop t.free
  in
  Mutex.unlock t.m;
  b

let recycle t b =
  if Bytes.length b = t.buffer_bytes then begin
    Mutex.lock t.m;
    (* Cap the free list at the queue capacity's worth of slices; a
       closed inbox keeps none. *)
    if (not t.closed) && Queue.length t.free * t.buffer_bytes < t.capacity
    then Queue.push b t.free;
    Mutex.unlock t.m
  end

(* Blocks while the queue is non-empty and over capacity; drops the
   slice once the consumer side has closed (the connection is dead —
   nothing downstream will ever pop again). *)
let push t b n =
  Mutex.lock t.m;
  while (not t.closed) && t.bytes > 0 && t.bytes + n > t.capacity do
    Condition.wait t.not_full t.m
  done;
  if not t.closed then begin
    Queue.push (Data (b, n)) t.q;
    t.bytes <- t.bytes + n
  end;
  Mutex.unlock t.m

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
  Queue.clear t.q;
  Queue.clear t.free;
  t.bytes <- 0;
  Condition.broadcast t.not_full;
  Mutex.unlock t.m

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
