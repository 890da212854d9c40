module Event = Aprof_trace.Event

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

module Codec = Aprof_trace.Trace_codec

module Shards = struct
  type t = { path : string; chunks : Codec.shard array }

  let of_file path =
    In_channel.with_open_bin path (fun ic ->
        match Codec.detect ic with
        | `Text -> None
        | `Binary -> Codec.shards ~path ic)
    |> Option.map (fun chunks -> { path; chunks })
end

(* ----- sharded replay -------------------------------------------------- *)

module Par = Aprof_util.Par

let bad = Aprof_trace.Trace_wire.bad

(* The run loop every shard shares: one read session decodes the chunk
   ordinals [next] hands out until it returns a negative one, pushing
   chunk [i]'s batches into [on_chunk i].  Returns the events decoded
   and the session's name table. *)
let drain_chunks ~shards ~on_chunk next =
  In_channel.with_open_bin shards.Shards.path (fun ic ->
      let names, read = Codec.chunk_session ic in
      let rec go drained =
        let i = next () in
        if i < 0 then drained
        else go (drained + read shards.Shards.chunks.(i) (on_chunk i))
      in
      (go 0, names))

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
let partition_threads ~jobs (chunks : Codec.shard array) =
  let tid_max =
    Array.fold_left
      (fun acc (c : Codec.shard) -> Array.fold_left max acc c.tids)
      (-1) chunks
  in
  if tid_max < 0 then None
  else begin
    (* Chunks do not record per-tid counts, so spread each chunk's
       events evenly over its threads. *)
    let est = Array.make (tid_max + 1) 0 in
    Array.iter
      (fun (c : Codec.shard) ->
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
        drain_chunks ~shards ~on_chunk:(fun _ -> M.on_batch st) next
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
        let tid_max = Array.length owner - 1 in
        (* A shard replays, in file order, the chunks holding one of its
           threads or a broadcast tag: order within a thread is what the
           tools' state machines depend on. *)
        let shard s =
          let owns tid = tid >= 0 && tid <= tid_max && owner.(tid) = s in
          let list =
            List.filter
              (fun i ->
                let c = chunks.(i) in
                c.Codec.tag_mask land broadcast <> 0
                || Array.exists (fun tid -> owner.(tid) = s) c.Codec.tids)
              (List.init n Fun.id)
          in
          let st = M.create () in
          set_owner st owns;
          fun () ->
            (* One pass over each decoded batch holds every record to
               the index entry its chunk was chosen by (no checksum
               covers the index), counts the owned events and compacts
               the batch to owned plus broadcast events.  [named.(tid)]
               is the ordinal of the last chunk whose entry names
               [tid]. *)
            let owned = ref 0 in
            let named = Array.make (tid_max + 1) (-1) in
            let on_chunk i =
              let sh = chunks.(i) in
              Array.iter (fun tid -> named.(tid) <- i) sh.Codec.tids;
              let keep tag tid =
                if (sh.Codec.tag_mask lsr tag) land 1 = 0 then
                  bad "chunk at byte %d: record tag %d is not in its index entry"
                    sh.Codec.offset tag;
                if tid > tid_max || named.(tid) <> i then
                  bad "chunk at byte %d: thread %d is not in its index entry"
                    sh.Codec.offset tid;
                if owner.(tid) = s then begin
                  incr owned;
                  true
                end
                else (broadcast lsr tag) land 1 = 1
              in
              fun b ->
                Event.Batch.filter_in_place keep b;
                if not (Event.Batch.is_empty b) then M.on_batch st b
            in
            let _, names =
              drain_chunks ~shards ~on_chunk (in_order (Array.of_list list))
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
