(** A memcheck-style memory error detector over the trace vocabulary:
    shadow addressability (A) and definedness (V) state per cell.

    Detected errors:
    - invalid read/write: access to a cell outside any live allocation
      (including use-after-free);
    - uninitialized read: load of an addressable but never-written cell;
    - invalid free / double free;
    - leaked blocks still live when [report] is taken.

    Cells below the heap base (0x1000, where the VM allocator starts)
    that were never allocated are treated as statically addressable and
    defined (globals/stack), so hand-built traces with absolute
    addresses do not drown the report.  [on_batch] checks every packed
    event of a batch in order. *)

type t

include Tool.S with type state = t

type error =
  | Invalid_read of { tid : int; addr : int }
  | Invalid_write of { tid : int; addr : int }
  | Uninitialized_read of { tid : int; addr : int }
  | Invalid_free of { tid : int; addr : int }
  | Leak of { addr : int; len : int }

val pp_error : Format.formatter -> error -> unit

(** [errors t] in detection order, deduplicated per (kind, address). *)
val errors : t -> error list

(** [leaks t] — live blocks (call after the trace ends). *)
val leaks : t -> error list

(** [merge ~into src] folds [src]'s error reports into [into],
    deduplicating identical ones; [into]'s shadow and block tables are
    kept.  Meaningful for thread-sharded replays of {e one} trace
    (where the broadcast of every shadow-mutating event makes every
    worker's shadow state identical), not for combining runs over
    different traces. *)
val merge : into:t -> t -> unit
