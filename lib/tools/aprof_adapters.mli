(** The input-sensitive profilers of [aprof_core] as {!Tool.Profiler}s,
    so they line up next to the comparator tools in the Table 1 harness
    and run under replay, sharded replay and the daemon alike.  All
    three shard by thread. *)

(** The rms-only baseline profiler (the paper's [aprof] column): the
    drms profiler in mode [`None], which keeps no write-timestamp
    shadow.  Broadcast is [Free] only, the one cross-thread rms
    effect; [set_owner] is a no-op, since each shard is then an
    ordinary profiler of its own threads. *)
module Rms : Tool.Profiler with type state = Aprof_core.Drms_profiler.t

(** The full drms profiler (the paper's [aprof-drms] column).  The
    global write-timestamp order is preserved by broadcasting every
    event that ticks the counter or stamps the write shadow
    ({!Aprof_core.Drms_profiler.shard_broadcast}); each shard then
    computes exactly the sequential profile of its own threads — see
    {!Aprof_core.Drms_profiler.set_owner} for the argument.  [-j N ≡
    -j 1] is enforced by the parallel differential suite. *)
module Drms : Tool.Profiler with type state = Aprof_core.Drms_profiler.t

(** The naive set-based drms oracle ([naive-drms]); broadcast: writes,
    kernel fills, frees — it keeps no clock.  Its footprint is not
    measured ([space_words] is 0). *)
module Naive : Tool.Profiler with type state = Aprof_core.Naive_drms.t
