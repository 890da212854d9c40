(** The null tool: consumes events, collecting nothing useful — the
    instrumentation-only baseline all slowdowns are normalized against,
    exactly the role [nulgrind] plays in Table 1.  Its [on_batch] counts
    a whole batch in O(1); counting is order-independent, so it shards
    by chunk. *)

type t

include Tool.S with type state = t

(** [events t] is the number of events consumed. *)
val events : t -> int

(** [merge ~into src] adds [src]'s event count into [into]. *)
val merge : into:t -> t -> unit
