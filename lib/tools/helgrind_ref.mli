(** The original full-vector-clock race detector, retained verbatim as
    the differential-test oracle for the epoch-based {!Helgrind_lite}.

    Per cell it keeps a complete [Vclock.t] of last reads and a boxed
    lockset list, with a hashtable from address to cell — O(threads)
    space and work per access, which is why it is test-only.  The qcheck
    differential suite checks that the epoch detector reports the
    identical race set on random VM programs under every scheduler. *)

type race = {
  addr : int;
  kind : [ `Write_write | `Read_write | `Write_read ];
  prev_tid : int;
  tid : int;
}

type t

val create : unit -> t

(** [on_batch t b] processes every event of [b] in order.  Behind it the
    oracle unpacks each event and runs its per-event core. *)
val on_batch : t -> Aprof_trace.Event.Batch.t -> unit

(** [races t] in detection order, deduplicated per (address, kind). *)
val races : t -> race list
