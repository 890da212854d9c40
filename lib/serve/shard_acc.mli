(** The daemon's profile accumulator for concurrent ingest: one
    {!Aprof_core.Profile.t} and one routine-name table behind one
    mutex.  Connections {!fold} the profile of each *completed* trace
    into it; {!snapshot} copies it.

    Consistency model: a fold merges one whole trace under the mutex
    and a snapshot copies under it, so a snapshot observes every folded
    trace either entirely or not at all — never half a trace.  Since
    profiles form a commutative monoid and folding happens only at
    trace boundaries, any snapshot equals the offline merge of the
    traces folded so far. *)

module Profile = Aprof_core.Profile

type t

val create : unit -> t

(** Record a routine-name definition (last definition wins, as in
    sequential replay). *)
val define : t -> int -> string -> unit

(** [fold t src] merges [src] — one completed trace's profile — into
    the accumulator.  [src] is not modified. *)
val fold : t -> Profile.t -> unit

(** [snapshot t] copies the accumulated profile and name table. *)
val snapshot : t -> Profile.t * (int, string) Hashtbl.t

(** Total completed folds so far. *)
val folds : t -> int
