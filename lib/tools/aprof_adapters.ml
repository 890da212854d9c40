let rms_tool p =
  {
    Tool.name = "aprof";
    on_batch = Aprof_core.Rms_profiler.on_batch p;
    space_words = (fun () -> Aprof_core.Rms_profiler.space_words p);
    summary =
      (fun () ->
        let profile = Aprof_core.Rms_profiler.finish p in
        Printf.sprintf "aprof: %d activations over %d routines"
          (Aprof_core.Profile.total_activations profile)
          (List.length (Aprof_core.Profile.routines profile)));
  }

let aprof_rms =
  {
    Tool.tool_name = "aprof";
    create = (fun () -> rms_tool (Aprof_core.Rms_profiler.create ()));
  }

module Rms_mergeable = struct
  type state = Aprof_core.Rms_profiler.t

  let name = "aprof"
  let create () = Aprof_core.Rms_profiler.create ()
  let tool = rms_tool
  let merge = Aprof_core.Rms_profiler.merge_into

  (* A free clears every thread's shadow stamps (see
     {!Aprof_core.Rms_profiler}), so every worker must see it; all
     other rms state is per-thread, and the global activation counter
     only feeds order comparisons between one thread's own stamps,
     which dropping foreign events preserves. *)
  let broadcast = 1 lsl Aprof_trace.Event.Batch.tag_free
  let sharding = `By_thread
  let set_owner _ _ = ()
end

let drms_tool p =
  {
    Tool.name = "aprof-drms";
    on_batch = Aprof_core.Drms_profiler.on_batch p;
    space_words = (fun () -> Aprof_core.Drms_profiler.space_words p);
    summary =
      (fun () ->
        let profile = Aprof_core.Drms_profiler.finish p in
        Printf.sprintf "aprof-drms: %d activations over %d routines"
          (Aprof_core.Profile.total_activations profile)
          (List.length (Aprof_core.Profile.routines profile)));
  }

let aprof_drms =
  {
    Tool.tool_name = "aprof-drms";
    create = (fun () -> drms_tool (Aprof_core.Drms_profiler.create ()));
  }

module Drms_mergeable = struct
  type state = Aprof_core.Drms_profiler.t

  let name = "aprof-drms"
  let create () = Aprof_core.Drms_profiler.create ()
  let tool = drms_tool
  let merge = Aprof_core.Drms_profiler.merge_into

  (* Every counter-ticking event (Call, Switch_thread, Kernel_to_user)
     and every write-shadow mutation (Write, Kernel_to_user, Free) is
     broadcast, so each shard's clock stamps its own threads' accesses
     in the sequential order and its profile is exactly the sequential
     one restricted to the threads it owns — the ordering argument is
     in {!Aprof_core.Drms_profiler.set_owner} and DESIGN.md 4c. *)
  let broadcast = Aprof_core.Drms_profiler.shard_broadcast
  let sharding = `By_thread
  let set_owner = Aprof_core.Drms_profiler.set_owner
end

module Naive_mergeable = struct
  type state = Aprof_core.Naive_drms.t

  let name = "naive-drms"

  let create () = Aprof_core.Naive_drms.create ()

  let tool p =
    {
      Tool.name = "naive-drms";
      on_batch = Aprof_core.Naive_drms.on_batch p;
      space_words = (fun () -> 0);
      summary =
        (fun () ->
          let profile = Aprof_core.Naive_drms.finish p in
          Printf.sprintf "naive-drms: %d activations"
            (Aprof_core.Profile.total_activations profile));
    }

  let merge = Aprof_core.Naive_drms.merge_into

  (* The naive oracle keeps no clock — its cross-thread state is the
     last-writer table and the per-activation location sets, both driven
     only by writes, kernel fills and frees.  Foreign writes arriving
     through the ordinary handler are harmless: they update last_writer
     and deplete other threads' sets (intended), and touch otherwise
     only the foreign thread's own (never-read) state. *)
  let broadcast =
    let module B = Aprof_trace.Event.Batch in
    (1 lsl B.tag_write) lor (1 lsl B.tag_kernel_to_user)
    lor (1 lsl B.tag_free)

  let sharding = `By_thread
  let set_owner _ _ = ()
end
