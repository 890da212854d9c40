(** A callgrind-style call-graph profiler: exclusive and inclusive
    basic-block costs per routine and per call-graph edge, from the same
    event stream as the other tools.  Costs follow {!Aprof_core.Cost_model}.
    [on_batch] processes every packed event of a batch in order,
    dispatching on raw tags without constructing variants. *)

type routine_costs = {
  routine : int;
  calls : int;
  exclusive : int;  (** cost in the routine's own frames *)
  inclusive : int;  (** cost including completed descendants *)
}

type edge_costs = {
  caller : int;  (** -1 for calls from the thread's toplevel *)
  callee : int;
  count : int;
  edge_inclusive : int;
}

type t

include Tool.S with type state = t

(** [routine_costs t] sorted by decreasing inclusive cost.  Pending
    activations contribute on [Return] only; call once the trace ended. *)
val routine_costs : t -> routine_costs list

(** [edges t] sorted by decreasing inclusive cost. *)
val edges : t -> edge_costs list

(** [merge ~into src] adds [src]'s per-routine and per-edge costs into
    [into].  Pending (unreturned) frames transfer only for threads
    [into] has not seen — merging halves of one thread's stack is
    rejected, as thread-sharded replays never produce that. *)
val merge : into:t -> t -> unit
