module Batch = Aprof_trace.Event.Batch
module Profile = Aprof_core.Profile

let activations_over_routines name profile =
  Printf.sprintf "%s: %d activations over %d routines" name
    (Profile.total_activations profile)
    (List.length (Profile.routines profile))

module Rms = struct
  module P = Aprof_core.Rms_profiler

  type state = P.t

  let name = "aprof"
  let create () = P.create ()
  let on_batch = P.on_batch
  let space_words = P.space_words
  let summary p = activations_over_routines name (P.finish p)
  let finish = P.finish
  let reset = P.reset

  (* A free clears every thread's shadow stamps (see
     {!Aprof_core.Rms_profiler}), so every worker must see it; all
     other rms state is per-thread, and the global activation counter
     only feeds order comparisons between one thread's own stamps,
     which dropping foreign events preserves. *)
  let sharding =
    Tool.By_thread
      {
        broadcast = 1 lsl Batch.tag_free;
        set_owner = (fun _ _ -> ());
        merge = P.merge_into;
      }
end

module Drms = struct
  module P = Aprof_core.Drms_profiler

  type state = P.t

  let name = "aprof-drms"
  let create () = P.create ()
  let on_batch = P.on_batch
  let space_words = P.space_words
  let summary p = activations_over_routines name (P.finish p)
  let finish = P.finish
  let reset = P.reset

  (* Every counter-ticking event (Call, Switch_thread, Kernel_to_user)
     and every write-shadow mutation (Write, Kernel_to_user, Free) is
     broadcast, so each shard's clock stamps its own threads' accesses
     in the sequential order and its profile is exactly the sequential
     one restricted to the threads it owns — the ordering argument is
     in {!Aprof_core.Drms_profiler.set_owner} and DESIGN.md 4c. *)
  let sharding =
    Tool.By_thread
      {
        broadcast = P.shard_broadcast;
        set_owner = P.set_owner;
        merge = P.merge_into;
      }
end

module Naive = struct
  module P = Aprof_core.Naive_drms

  type state = P.t

  let name = "naive-drms"
  let create () = P.create ()
  let on_batch = P.on_batch
  let space_words _ = 0

  let summary p =
    Printf.sprintf "%s: %d activations" name
      (Profile.total_activations (P.finish p))

  let finish = P.finish
  let reset = P.reset

  (* The naive oracle keeps no clock — its cross-thread state is the
     last-writer table and the per-activation location sets, both driven
     only by writes, kernel fills and frees.  Foreign writes arriving
     through the ordinary handler are harmless: they update last_writer
     and deplete other threads' sets (intended), and touch otherwise
     only the foreign thread's own (never-read) state. *)
  let sharding =
    Tool.By_thread
      {
        broadcast =
          (1 lsl Batch.tag_write) lor (1 lsl Batch.tag_kernel_to_user)
          lor (1 lsl Batch.tag_free);
        set_owner = (fun _ _ -> ());
        merge = P.merge_into;
      }
end
