open Program

module Mutex = struct
  type t = sem

  let create () = sem_create 1
  let lock = sem_wait
  let unlock = sem_post

  let with_lock m body =
    let* () = lock m in
    let* x = body in
    let* () = unlock m in
    return x
end

module Channel = struct
  type t = {
    data : addr; (* ring storage: [capacity] cells *)
    head : addr; (* dequeue index cell *)
    tail : addr; (* enqueue index cell *)
    capacity : int;
    items : sem; (* filled slots *)
    spaces : sem; (* free slots *)
    lock : Mutex.t;
  }

  let create capacity =
    if capacity <= 0 then invalid_arg "Channel.create: capacity <= 0";
    let* data = alloc capacity in
    let* head = alloc 1 in
    let* tail = alloc 1 in
    let* () = write head 0 in
    let* () = write tail 0 in
    let* items = sem_create 0 in
    let* spaces = sem_create capacity in
    let* lock = Mutex.create () in
    return { data; head; tail; capacity; items; spaces; lock }

  let send ch v =
    let* () = sem_wait ch.spaces in
    let* () = Mutex.lock ch.lock in
    let* t = read ch.tail in
    let* () = write (ch.data + (t mod ch.capacity)) v in
    let* () = write ch.tail (t + 1) in
    let* () = Mutex.unlock ch.lock in
    sem_post ch.items

  let recv ch =
    let* () = sem_wait ch.items in
    let* () = Mutex.lock ch.lock in
    let* h = read ch.head in
    let* v = read (ch.data + (h mod ch.capacity)) in
    let* () = write ch.head (h + 1) in
    let* () = Mutex.unlock ch.lock in
    let* () = sem_post ch.spaces in
    return v

  let try_recv ch =
    let* ok = sem_trywait ch.items in
    if not ok then return None
    else
      let* () = Mutex.lock ch.lock in
      let* h = read ch.head in
      let* v = read (ch.data + (h mod ch.capacity)) in
      let* () = write ch.head (h + 1) in
      let* () = Mutex.unlock ch.lock in
      let* () = sem_post ch.spaces in
      return (Some v)
end
