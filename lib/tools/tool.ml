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

(* ----- sharded replay -------------------------------------------------- *)

module Par = Aprof_util.Par

(* The run loop every shard shares: one read session, decoding through
   [keep], drains the chunk ordinals [next] hands out into [on_batch]
   until [next] returns a negative one.  Returns the events drained and
   the session's name table. *)
let drain_chunks ~shards ?keep ~on_batch next =
  let s = shards.Shards.open_session ?keep () in
  Fun.protect ~finally:s.Shards.close (fun () ->
      let drained = ref 0 in
      let rec go () =
        let i = next () in
        if i >= 0 then begin
          drained := !drained + Stream.drain (s.Shards.read i) on_batch;
          go ()
        end
      in
      go ();
      (!drained, s.Shards.names))

(* The ordinals of [list], in order, then [-1]. *)
let in_order list =
  let k = ref 0 in
  fun () ->
    if !k >= Array.length list then -1
    else begin
      incr k;
      list.(!k - 1)
    end

(* Longest-processing-time partition of the trace's threads into at
   most [jobs] shards on estimated event counts, so a hot thread gets a
   shard to itself: [owner.(tid)] is the shard owning [tid], [-1] for a
   thread no chunk names.  [None] when no chunk names a thread. *)
let partition_threads ~jobs (chunks : Shards.chunk array) =
  let tid_max =
    Array.fold_left
      (fun acc (c : Shards.chunk) -> Array.fold_left max acc c.tids)
      (-1) chunks
  in
  if tid_max < 0 then None
  else begin
    (* Chunks do not record per-tid counts, so spread each chunk's
       events evenly over its threads. *)
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
    let loads = Array.make n_shards 0 in
    List.iter
      (fun tid ->
        let s = ref 0 in
        for i = 1 to n_shards - 1 do
          if loads.(i) < loads.(!s) then s := i
        done;
        owner.(tid) <- !s;
        loads.(!s) <- loads.(!s) + est.(tid))
      tids;
    Some (n_shards, owner)
  end

(* Plan the shards, then run one [Par.run] task per shard.  Planning
   creates every shard's instance on the calling domain: instances that
   a spawned domain allocates outlive it, and left later replays in the
   same process slower ([bench -e parallel]'s [-j 1] rows after a
   [-j 4] run).  Every event is counted exactly once: a [By_chunk] chunk
   is claimed by one task, and a [By_thread] shard counts only the
   events of threads it owns — broadcast copies replayed for their side
   effects are excluded — so the total equals the sequential event
   count whatever [jobs] is. *)
let replay_parallel (type a) ~pool ~jobs ~shards
    (module M : S with type state = a) =
  if jobs < 1 then invalid_arg "Tool.replay_parallel: jobs < 1";
  let chunks = shards.Shards.chunks in
  let n = Array.length chunks in
  let unfiltered next =
    let st = M.create () in
    fun () ->
      let events, names =
        drain_chunks ~shards ~on_batch:(M.on_batch st) next
      in
      (st, events, names)
  in
  let whole () = unfiltered (in_order (Array.init n Fun.id)) in
  let no_merge ~into:_ _ = () in
  let tasks, merge =
    match M.sharding with
    | _ when jobs = 1 || n = 0 -> ([| whole () |], no_merge)
    | Global -> ([| whole () |], no_merge)
    | By_chunk { merge } ->
      (* Order-independent: every task takes chunks from one shared
         counter, so a task that drew short chunks draws more. *)
      let claimed = Atomic.make 0 in
      let next () =
        let i = Atomic.fetch_and_add claimed 1 in
        if i < n then i else -1
      in
      (Array.init (min jobs n) (fun _ -> unfiltered next), merge)
    | By_thread { broadcast; set_owner; merge } -> (
      match partition_threads ~jobs chunks with
      | None -> ([| whole () |], no_merge)
      | Some (n_shards, owner) ->
        (* A shard replays, in file order, the chunks holding one of its
           threads or a broadcast tag: order within a thread is what the
           tools' state machines depend on. *)
        let shard s =
          let owns tid =
            tid >= 0 && tid < Array.length owner && owner.(tid) = s
          in
          let list =
            List.filter
              (fun i ->
                let c = chunks.(i) in
                c.Shards.tag_mask land broadcast <> 0
                || Array.exists (fun tid -> owner.(tid) = s) c.Shards.tids)
              (List.init n Fun.id)
          in
          let st = M.create () in
          set_owner st owns;
          fun () ->
            let owned = ref 0 in
            let keep tag tid =
              if owns tid then begin
                incr owned;
                true
              end
              else (broadcast lsr tag) land 1 = 1
            in
            let _, names =
              drain_chunks ~shards ~keep ~on_batch:(M.on_batch st)
                (in_order (Array.of_list list))
            in
            (st, !owned, names)
        in
        (Array.init n_shards shard, merge))
  in
  let results = Array.make (Array.length tasks) None in
  Par.run pool
    (Array.mapi (fun k task () -> results.(k) <- Some (task ())) tasks);
  match Array.map Option.get results with
  | [| result |] -> result
  | results ->
    let st, _, _ = results.(0) in
    let names = Hashtbl.create 64 in
    let events = ref 0 in
    Array.iteri
      (fun k (st', n, names') ->
        if k > 0 then merge ~into:st st';
        Hashtbl.iter (Hashtbl.replace names) names';
        events := !events + n)
      results;
    (st, !events, names)
