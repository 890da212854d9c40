(** Routine profiles: the profiler's output.

    For each (routine, thread) pair the profile stores a set of
    performance points — one per distinct observed input size, keyed both
    by drms and by rms — plus activation totals and the breakdown of
    (possibly induced) first-read operations used by the workload
    characterization metrics of Section 4.1.

    Profiles are thread-sensitive (Section 3); [merge_threads] merges them
    into per-routine profiles in a subsequent step, as the paper does for
    the [|rms_r|]/[|drms_r|] counts. *)

type key = { tid : Aprof_trace.Event.tid; routine : Aprof_trace.Event.routine }

(** Cost summary of all activations sharing one input-size value. *)
type point = {
  input : int;  (** the drms (or rms) value *)
  calls : int;  (** activations observed with this input size *)
  max_cost : int;  (** worst-case cost — the paper's cost plots *)
  min_cost : int;
  sum_cost : float;  (** for mean/variance *)
  sum_cost_sq : float;
}

(** Aggregate data of one (routine, thread) — or merged routine — profile. *)
type routine_data = {
  drms_points : point list;  (** sorted by increasing input *)
  rms_points : point list;  (** sorted by increasing input *)
  activations : int;
  sum_rms : float;  (** Σ rms over activations (input-volume metric) *)
  sum_drms : float;
  total_cost : float;
  first_read_ops : int;  (** plain first-reads performed (line 5 hits) *)
  induced_thread_ops : int;  (** line 2 hits whose latest writer is a thread *)
  induced_external_ops : int;  (** line 2 hits whose latest writer is the kernel *)
}

type t

val create : unit -> t

(** [record_activation t ~tid ~routine ~rms ~drms ~cost] accounts one
    completed activation. *)
val record_activation :
  t -> tid:int -> routine:int -> rms:int -> drms:int -> cost:int -> unit

(** [record_ops t ~tid ~routine ~plain ~induced_thread ~induced_external]
    adds first-read operation counts attributed to [routine] (the topmost
    routine executing the reads). *)
val record_ops :
  t ->
  tid:int ->
  routine:int ->
  plain:int ->
  induced_thread:int ->
  induced_external:int ->
  unit

(** A cursor on one (routine, thread)'s counters, letting the profilers
    bump counts and record activations without a table lookup per memory
    access or return. *)
type ops_handle

val ops_handle : t -> tid:int -> routine:int -> ops_handle

(** A handle on no profile's counters: what a profiler's recycled
    shadow-stack frame holds between traces, so that it keeps no
    finished profile reachable.  It must never be bumped or recorded
    into. *)
val no_handle : ops_handle

val bump_plain : ops_handle -> unit
val bump_induced_thread : ops_handle -> unit
val bump_induced_external : ops_handle -> unit

(** [record_into h ~rms ~drms ~cost] is
    {!record_activation}[ t ~tid ~routine ...] for the (routine, thread)
    pair [h] was obtained for, skipping the cell lookup: a shadow-stack
    frame already holds the handle it was entered with. *)
val record_into : ops_handle -> rms:int -> drms:int -> cost:int -> unit

(** [keys t] lists the (routine, thread) pairs with data, in unspecified
    order. *)
val keys : t -> key list

(** [data t key] is the profile of [key], if any. *)
val data : t -> key -> routine_data option

(** [routines t] lists the distinct routine ids with data. *)
val routines : t -> int list

(** {2 Merging partial profiles}

    Profiles form a commutative monoid under {!merge} with {!create} as
    identity: every per-cell aggregate is a count, a sum, or an extremum,
    and points with equal input sizes combine exactly as
    {!record_activation} would have accumulated them in one pass.  This
    is what lets partial profiles from trace shards, parallel replay
    workers, or separate runs compose into the profile a single
    sequential pass would have produced.  (Float sums are associative
    only up to rounding, as in any summation order change.) *)

(** [merge_into ~into src] folds every cell of [src] into [into];
    [src] is not modified. *)
val merge_into : into:t -> t -> unit

(** [merge a b] is a fresh profile holding the combined data. *)
val merge : t -> t -> t

(** [merge_threads t] folds the thread dimension away: one [routine_data]
    per routine, where points with equal input sizes are combined
    (max of maxes, sum of calls, ...). *)
val merge_threads : t -> (int * routine_data) list

(** [cost_points ~metric ~cost d] is [d]'s performance points as
    (input size, cost) pairs, keyed by drms or rms, with the worst-case
    ([`Max], the paper's cost plots) or mean ([`Mean]) cost per input
    size. *)
val cost_points :
  metric:[ `Drms | `Rms ] ->
  cost:[ `Max | `Mean ] ->
  routine_data ->
  (int * float) list

(** [total_activations t] over all keys. *)
val total_activations : t -> int

(** [pp names ppf t] prints a human-readable profile using [names] to
    resolve routine ids. *)
val pp : (int -> string) -> Format.formatter -> t -> unit

(** {2 Restoration}

    Raw insertion used by {!Profile_io} to rebuild saved profiles;
    profilers should use {!record_activation}/{!record_ops} instead. *)

(** [restore_point t ~tid ~routine ~metric point] merges a saved point. *)
val restore_point :
  t -> tid:int -> routine:int -> metric:[ `Drms | `Rms ] -> point -> unit

(** [restore_aggregates t ~tid ~routine ...] sets the per-cell totals. *)
val restore_aggregates :
  t ->
  tid:int ->
  routine:int ->
  activations:int ->
  sum_rms:float ->
  sum_drms:float ->
  total_cost:float ->
  unit
