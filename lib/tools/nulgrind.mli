(** The null tool: sees every event and does nothing with it — the
    instrumentation-only baseline all slowdowns are normalized against,
    exactly the role [nulgrind] plays in Table 1.  Its [on_batch] walks
    each event's tag, allocation-free, and keeps only an event count;
    counting is order-independent, so it shards by chunk. *)

type t

include Tool.S with type state = t

(** [events t] is the number of events consumed. *)
val events : t -> int

(** [merge ~into src] adds [src]'s event count into [into]. *)
val merge : into:t -> t -> unit
