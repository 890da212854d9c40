(** A happens-before data race detector in the style of helgrind /
    FastTrack: per-thread and per-sync-object vector clocks, but O(1)
    packed-epoch metadata per memory cell.

    Each cell stores the last-write epoch ([clk lsl tid_bits lor tid])
    and a read state that is a single epoch until genuinely concurrent
    reads force promotion to a full {!Vclock.t} (demoted again at the
    next write).  Same-epoch reads and writes exit after two loads and a
    compare.  Cells live in a {!Shadow_memory} arena (three ints per
    cell) and Eraser candidate locksets are hash-consed {!Lockset} ids.

    Race reports are equivalent to the full-vector-clock oracle
    {!Helgrind_ref}: identical (address, kind, accessing thread) sets,
    detected at the same events — the differential suite pins this.

    Synchronization events ([Acquire]/[Release] from semaphores,
    barriers, spawn/join edges) transfer clocks through the sync
    object's vector clock with accumulate-join semantics, which is
    conservative (may miss races through over-synchronization) but never
    reports a false race on these traces.

    Kernel transfers are attributed to the issuing thread, as Valgrind
    does for syscall buffers.

    [on_batch] processes every packed event of a batch in order,
    dispatching on raw tags without constructing variants.  The
    detector consumes the global interleaving, so its sharding is
    [Global]: it replays in order and never merges. *)

type race = {
  addr : int;
  kind : [ `Write_write | `Read_write | `Write_read ];
  prev_tid : int;
  tid : int;
}

val pp_race : Format.formatter -> race -> unit

type t

include Tool.S with type state = t

(** [races t] in detection order, deduplicated per (address, kind). *)
val races : t -> race list

(** [render_report t] is the races, one per line, followed by the
    summary — what `aprof tools` prints and the golden test pins. *)
val render_report : t -> string
