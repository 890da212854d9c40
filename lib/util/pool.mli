(** A bounded pool of idle objects kept for reuse, safe to share among
    domains and threads on both runtimes.

    A pool never creates objects: a user [take]s one when the pool has
    one idle, makes a fresh one otherwise, and [give]s it back when
    done.  At most [max_idle] objects are kept idle; one given back to a
    full pool is dropped, so what a pool retains is bounded however
    many users it once served. *)

type 'a t

(** [create ~max_idle] is an empty pool keeping at most [max_idle] idle
    objects.
    @raise Invalid_argument if [max_idle < 0]. *)
val create : max_idle:int -> 'a t

(** [take p] is an idle object, the most recently given first; [None]
    when the pool is empty. *)
val take : 'a t -> 'a option

(** [give p x] keeps [x] for a later {!take}, or drops it when [max_idle]
    objects are idle already. *)
val give : 'a t -> 'a -> unit

(** [full p] is whether [give] would drop its argument now — a hint
    (other users may take or give meanwhile) that spares a caller from
    preparing an object the pool cannot keep. *)
val full : 'a t -> bool
