module Event = Aprof_trace.Event
module Stream = Aprof_trace.Trace_stream

type 'state sharding =
  | By_chunk of { merge : into:'state -> 'state -> unit }
  | By_thread of {
      broadcast : int;
      set_owner : 'state -> (int -> bool) -> unit;
      merge : into:'state -> 'state -> unit;
    }
  | Global

module type S = sig
  type state

  val name : string
  val create : unit -> state
  val on_batch : state -> Event.Batch.t -> unit
  val space_words : state -> int
  val summary : state -> string
  val sharding : state sharding
end

module type Profiler = sig
  include S

  val finish : state -> Aprof_core.Profile.t
  val reset : state -> unit
end

let shard_keep ~owns ~broadcast =
 fun tag tid -> (broadcast lsr tag) land 1 = 1 || owns tid

(* ----- chunked trace sources ------------------------------------------- *)

module Shards = struct
  module Codec = Aprof_trace.Trace_codec

  type chunk = { events : int; tag_mask : int; tids : int array }

  type session = {
    names : (int, string) Hashtbl.t;
    read : int -> Stream.batch_source;
    close : unit -> unit;
  }

  type nonrec t = {
    chunks : chunk array;
    open_session : ?keep:(int -> int -> bool) -> unit -> session;
  }

  let of_file path =
    let probe =
      In_channel.with_open_bin path (fun ic ->
          match Codec.detect ic with
          | `Text -> None
          | `Binary -> Codec.shards ~path ic)
    in
    match probe with
    | None -> None
    | Some shs ->
      let chunks =
        Array.map
          (fun (sh : Codec.shard) ->
            {
              events = sh.Codec.events;
              tag_mask = sh.Codec.tag_mask;
              tids = sh.Codec.tids;
            })
          shs
      in
      let open_session ?keep () =
        let ic = In_channel.open_bin path in
        let names, read = Codec.chunk_session ?keep ic in
        {
          names;
          read = (fun i -> read shs.(i));
          close = (fun () -> In_channel.close ic);
        }
      in
      Some { chunks; open_session }

  let of_trace ?(chunk_events = 4096) trace =
    if chunk_events < 1 then invalid_arg "Shards.of_trace: chunk_events < 1";
    let module Trace = Aprof_trace.Trace in
    let n = Trace.length trace in
    let nchunks = (n + chunk_events - 1) / chunk_events in
    let bounds i = (i * chunk_events, min n ((i + 1) * chunk_events)) in
    let chunks =
      Array.init nchunks (fun i ->
          let lo, hi = bounds i in
          let mask = ref 0 in
          let tids = Hashtbl.create 8 in
          Trace.iter_raw trace ~pos:lo ~len:(hi - lo) (fun tag tid _ _ ->
              mask := !mask lor (1 lsl tag);
              Hashtbl.replace tids tid ());
          let tids = Hashtbl.fold (fun tid () acc -> tid :: acc) tids [] in
          let tids = Array.of_list tids in
          Array.sort compare tids;
          { events = hi - lo; tag_mask = !mask; tids })
    in
    let names : (int, string) Hashtbl.t = Hashtbl.create 1 in
    let open_session ?keep () =
      let keep = match keep with None -> fun _ _ -> true | Some k -> k in
      let b = Event.Batch.create ~capacity:chunk_events () in
      let read i =
        let lo, hi = bounds i in
        let pending = ref true in
        fun () ->
          if not !pending then None
          else begin
            pending := false;
            Event.Batch.clear b;
            Trace.iter_raw trace ~pos:lo ~len:(hi - lo)
              (fun tag tid arg len ->
                if keep tag tid then
                  Event.Batch.unsafe_push b ~tag ~tid ~arg ~len);
            Some b
          end
      in
      { names; read; close = (fun () -> ()) }
    in
    { chunks; open_session }
end

(* ----- work-stealing parallel replay ----------------------------------- *)

module Par = Aprof_util.Par

let union_into ~into tbl = Hashtbl.iter (Hashtbl.replace into) tbl

(* Sequential replay over the chunk source — the [jobs = 1] and [Global]
   path, and byte-for-byte what a plain drain of the file performs,
   which is what lets the differential suite pin [-j N ≡ -j 1]. *)
let replay_chunks_sequential (type a) ~shards
    (module M : S with type state = a) =
  let st = M.create () in
  let s = shards.Shards.open_session () in
  Fun.protect
    ~finally:(fun () -> s.Shards.close ())
    (fun () ->
      let count = ref 0 in
      for i = 0 to Array.length shards.Shards.chunks - 1 do
        count := !count + Stream.drain (s.Shards.read i) (M.on_batch st)
      done;
      (st, !count, s.Shards.names))

(* Order-independent tools: any worker may replay any chunk, so the
   deque items are bare chunk ordinals, seeded in contiguous runs (for
   seek locality) and rebalanced purely by stealing. *)
let replay_by_chunk (type a) ~pool ~jobs ~shards ~merge
    (module M : S with type state = a) =
  let chunks = shards.Shards.chunks in
  let n = Array.length chunks in
  let states = Array.init jobs (fun _ -> M.create ()) in
  let sessions = Array.make jobs None in
  let counts = Array.make jobs 0 in
  let session w =
    match sessions.(w) with
    | Some s -> s
    | None ->
      let s = shards.Shards.open_session () in
      sessions.(w) <- Some s;
      s
  in
  let ws = Par.Ws.create ~workers:jobs in
  for i = 0 to n - 1 do
    Par.Ws.seed ws ~worker:(i * jobs / n) i
  done;
  let step ~worker i =
    let s = session worker in
    counts.(worker) <-
      counts.(worker)
      + Stream.drain (s.Shards.read i) (M.on_batch states.(worker));
    None
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (Option.iter (fun s -> s.Shards.close ())) sessions)
    (fun () -> Par.Ws.run pool ws ~step);
  let names = Hashtbl.create 64 in
  Array.iter
    (Option.iter (fun s -> union_into ~into:names s.Shards.names))
    sessions;
  for w = 1 to jobs - 1 do
    merge ~into:states.(0) states.(w)
  done;
  (states.(0), Array.fold_left ( + ) 0 counts, names)

(* Thread-sharded tools: threads are partitioned into at most [jobs]
   shards (longest-processing-time first on estimated event counts, so
   a hot thread gets a shard to itself), and each shard replays its
   selected chunks *in file order* through one tool instance — order
   within a thread is what the tools' state machines depend on.  The
   deque item is the shard itself; it returns to a deque after every
   chunk, so an idle worker steals the remainder of a lagging shard at
   chunk granularity. *)
let replay_by_thread (type a) ~pool ~jobs ~shards ~broadcast ~set_owner ~merge
    (module M : S with type state = a) =
  let chunks = shards.Shards.chunks in
  let tid_max =
    Array.fold_left
      (fun acc (c : Shards.chunk) -> Array.fold_left max acc c.tids)
      (-1) chunks
  in
  if tid_max < 0 then replay_chunks_sequential ~shards (module M)
  else begin
    (* Estimated events per thread: chunks do not record per-tid counts,
       so spread each chunk's events evenly over its threads. *)
    let est = Array.make (tid_max + 1) 0 in
    Array.iter
      (fun (c : Shards.chunk) ->
        if Array.length c.tids > 0 then begin
          let share = max 1 (c.events / Array.length c.tids) in
          Array.iter (fun tid -> est.(tid) <- est.(tid) + share) c.tids
        end)
      chunks;
    let tids =
      List.filter (fun tid -> est.(tid) > 0)
        (List.init (tid_max + 1) Fun.id)
      |> List.sort (fun a b -> compare est.(b) est.(a))
    in
    let n_shards = min jobs (List.length tids) in
    let owner = Array.make (tid_max + 1) (-1) in
    let loads = Array.make (max n_shards 1) 0 in
    List.iter
      (fun tid ->
        let s = ref 0 in
        for i = 1 to n_shards - 1 do
          if loads.(i) < loads.(!s) then s := i
        done;
        owner.(tid) <- !s;
        loads.(!s) <- loads.(!s) + est.(tid))
      tids;
    let owns s tid = tid >= 0 && tid <= tid_max && owner.(tid) = s in
    let chunk_list s =
      let out = ref [] in
      for i = Array.length chunks - 1 downto 0 do
        let c = chunks.(i) in
        if
          c.Shards.tag_mask land broadcast <> 0
          || Array.exists (fun tid -> owner.(tid) = s) c.Shards.tids
        then out := i :: !out
      done;
      Array.of_list !out
    in
    let states = Array.init n_shards (fun _ -> M.create ()) in
    Array.iteri (fun s st -> set_owner st (owns s)) states;
    let lists = Array.init n_shards chunk_list in
    let cursors = Array.make n_shards 0 in
    let sessions = Array.make n_shards None in
    let counts = Array.make n_shards 0 in
    (* [shard_keep], pushed down into the session's decode loop so a
       foreign non-broadcast event is parse-only, with the owned-event
       count fused in.  A shard is held by one worker at a time (it
       lives in exactly one deque slot), so the bare [counts.(s)]
       update is single-writer; the deque lock orders the handoffs. *)
    let keeps =
      Array.init n_shards (fun s ->
          let owns = owns s in
          fun tag tid ->
            if owns tid then begin
              counts.(s) <- counts.(s) + 1;
              true
            end
            else (broadcast lsr tag) land 1 = 1)
    in
    let step ~worker:_ s =
      let list = lists.(s) in
      let cur = cursors.(s) in
      if cur >= Array.length list then None
      else begin
        cursors.(s) <- cur + 1;
        let sess =
          match sessions.(s) with
          | Some sess -> sess
          | None ->
            let sess = shards.Shards.open_session ~keep:keeps.(s) () in
            sessions.(s) <- Some sess;
            sess
        in
        ignore
          (Stream.drain (sess.Shards.read list.(cur)) (M.on_batch states.(s)));
        if cursors.(s) >= Array.length list then None else Some s
      end
    in
    let ws = Par.Ws.create ~workers:jobs in
    for s = 0 to n_shards - 1 do
      Par.Ws.seed ws ~worker:s s
    done;
    (* Sessions are closed — and their name tables unioned — back on the
       calling domain after the join: workers only open and read them,
       so no shared table is ever mutated concurrently. *)
    Fun.protect
      ~finally:(fun () ->
        Array.iter (Option.iter (fun s -> s.Shards.close ())) sessions)
      (fun () -> Par.Ws.run pool ws ~step);
    let names = Hashtbl.create 64 in
    Array.iter
      (Option.iter (fun s -> union_into ~into:names s.Shards.names))
      sessions;
    for s = 1 to n_shards - 1 do
      merge ~into:states.(0) states.(s)
    done;
    (states.(0), Array.fold_left ( + ) 0 counts, names)
  end

(* Every event is counted exactly once: in [By_chunk] mode each chunk
   is claimed by one worker, and in [By_thread] mode each worker counts
   only the events of threads it owns — broadcast copies replayed for
   their side effects are excluded, so the total equals the sequential
   event count whatever [jobs] is.  A [Global] tool is never split. *)
let replay_parallel (type a) ~pool ~jobs ~shards
    (module M : S with type state = a) =
  if jobs < 1 then invalid_arg "Tool.replay_parallel: jobs < 1";
  if jobs = 1 || Array.length shards.Shards.chunks = 0 then
    replay_chunks_sequential ~shards (module M)
  else
    match M.sharding with
    | By_chunk { merge } ->
      replay_by_chunk ~pool ~jobs ~shards ~merge (module M)
    | By_thread { broadcast; set_owner; merge } ->
      replay_by_thread ~pool ~jobs ~shards ~broadcast ~set_owner ~merge
        (module M)
    | Global -> replay_chunks_sequential ~shards (module M)
