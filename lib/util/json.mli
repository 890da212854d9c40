(** The two pieces of every hand-rolled JSON output ([aprof replay
    --json], [aprof diff --json], the bench rows). *)

(** [escape s] is [s] as the body of a JSON string: quote and backslash
    escaped, newline as [\n], every other control character as
    [\u00XX]. *)
val escape : string -> string

(** [number f] is [f] in [%.6g], or [null] when it is not finite. *)
val number : float -> string
