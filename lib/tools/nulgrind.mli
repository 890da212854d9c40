(** The null tool: consumes events, collecting nothing useful — the
    instrumentation-only baseline all slowdowns are normalized against,
    exactly the role [nulgrind] plays in Table 1. *)

type t

val create : unit -> t

(** [on_batch t b] counts a whole batch in O(1). *)
val on_batch : t -> Aprof_trace.Event.Batch.t -> unit

(** [events t] is the number of events consumed. *)
val events : t -> int

(** [merge ~into src] adds [src]'s event count into [into]. *)
val merge : into:t -> t -> unit

(** [tool_of t] wraps existing state; [tool ()] makes a fresh one. *)
val tool_of : t -> Tool.t

val tool : unit -> Tool.t
val factory : Tool.factory

module Mergeable : Tool.S with type state = t
