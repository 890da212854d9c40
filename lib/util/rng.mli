(** Deterministic pseudo-random streams.

    Every randomized component of the simulator (schedulers, device data,
    workload generators, noise models) draws from an explicit [Rng.t] so
    that a run is a pure function of its seed — a requirement for the
    differential tests and for reproducible experiment rows. *)

type t

(** [create seed] is a fresh generator determined only by [seed]. *)
val create : int -> t

(** [split t] derives an independent generator; [t] advances. *)
val split : t -> t

(** [int t bound] is uniform in [0, bound).  @raise Invalid_argument if
    [bound <= 0]. *)
val int : t -> int -> int

(** [int_in t lo hi] is uniform in [lo, hi] inclusive. *)
val int_in : t -> int -> int -> int

val bool : t -> bool

val float : t -> float -> float

(** [shuffle t arr] permutes [arr] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit

(** [gaussian t ~mu ~sigma] samples a normal variate (Box-Muller). *)
val gaussian : t -> mu:float -> sigma:float -> float
