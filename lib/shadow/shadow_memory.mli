(** Shadow memory: one integer word per simulated memory cell.

    Implemented, as in the paper's aprof-drms (Section 4.1), with
    three-level lookup tables so that only chunks related to cells
    actually accessed need to be materialized.  Unset cells read as [0],
    the "never accessed" timestamp.

    The default geometry (10-bit leaves, 10-bit mid tables) shadows a
    1M-cell space with a single top table; the top table grows on demand
    for larger spaces. *)

type t

(** [create ()] is an empty shadow memory; every cell reads as [0].
    [leaf_bits] and [mid_bits] control the chunk geometry (for tests).
    @raise Invalid_argument if either is not in [4, 20]. *)
val create : ?leaf_bits:int -> ?mid_bits:int -> unit -> t

(** [check_addr addr] rejects a negative address.  The per-access
    operations below do {e not} call it: addresses are validated once at
    the trust boundary ({!Aprof_trace.Event.Batch.validate} at the
    codec's batch edge; the VM allocator never produces negatives), so
    edges that accept addresses from elsewhere must call this first.
    @raise Invalid_argument on a negative address. *)
val check_addr : int -> unit

(** [get t addr] is the word shadowing [addr] ([0] if never set).
    [addr] must be non-negative — see {!check_addr}. *)
val get : t -> int -> int

(** [set t addr v] stores [v] at [addr], materializing chunks as needed.
    [addr] must be non-negative — see {!check_addr}. *)
val set : t -> int -> int -> unit

(** [exchange t addr v] stores [v] at [addr] and returns the previous
    word, resolving the chunk once — equivalent to [get] then [set].
    [addr] must be non-negative — see {!check_addr}. *)
val exchange : t -> int -> int -> int

(** [set_range t ~addr ~len v] stores [v] on [addr .. addr+len-1]. *)
val set_range : t -> addr:int -> len:int -> int -> unit

(** [iter_set f t] applies [f addr v] to every cell holding a non-zero
    word, in increasing address order. *)
val iter_set : (int -> int -> unit) -> t -> unit

(** [map_in_place f t] replaces every materialized word [v] by [f v]
    (including zeros, so [f] must map [0] to [0] to preserve the
    "never accessed" reading).
    @raise Invalid_argument if [f 0 <> 0]. *)
val map_in_place : (int -> int) -> t -> unit

(** [space_words t] is the number of machine words held by the lookup
    tables and materialized chunks — the space-accounting figure used by
    Table 1's overhead comparison. *)
val space_words : t -> int

(** [clear t] resets every cell to [0] and releases all chunks. *)
val clear : t -> unit

(** [reset t] resets every cell to [0] but keeps every materialized
    chunk, zero-filled, so refilling the same addresses allocates
    nothing.  Costs O({!space_words}). *)
val reset : t -> unit
