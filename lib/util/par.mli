(** A minimal fork/join job pool: the one task runner of parallel
    replay, its sharded engine included.

    A {!run} of [n] tasks spawns [min jobs n - 1] [Domain]s and works
    beside them on the calling one; each takes the next task index from
    a shared atomic counter until none is left.  A pool of one job (the
    default on a one-core host) runs every task on the caller, in index
    order.

    Tasks of one {!run} must be independent: they may run in any order,
    concurrently, and must not share mutable state unless that state is
    their own (the intended pattern is one private accumulator per task,
    merged by the caller afterwards). *)

type t

(** [available_parallelism ()] is the number of hardware-backed domains
    worth spawning ([Domain.recommended_domain_count]). *)
val available_parallelism : unit -> int

(** [create ?jobs ()] is a pool running at most [jobs] tasks at once
    (default {!available_parallelism}).
    @raise Invalid_argument when [jobs < 1]. *)
val create : ?jobs:int -> unit -> t

val jobs : t -> int

(** [run t tasks] executes every task and waits for all of them.  A task
    that raises stops no other task; once all have finished, the
    exception of the lowest-indexed failing task is re-raised —
    deterministic regardless of scheduling. *)
val run : t -> (unit -> unit) array -> unit
