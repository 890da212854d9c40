(** Saving and loading profiles.

    The format is plain CSV, opened by a [format,<version>] header line
    (see {!format_version}; dumps without the header are read as the
    original version-1 format), followed by records of two kinds, one
    line each:

    - [point,<tid>,<routine>,<metric>,<input>,<calls>,<max>,<min>,<sum>,<sumsq>]
      — one performance point ([metric] is [drms] or [rms]);
    - [ops,<tid>,<routine>,<plain>,<induced_thread>,<induced_external>]
      — the first-read operation counters.

    A [routine,<id>,<name>] line per interned routine makes dumps
    self-describing, and (since format 3) an optional
    [meta,<workload>,<seed>,<scale>,<threads>,<scheduler>] line records
    the run that produced the dump ({!Run_meta}) — the
    regression watch uses it to refuse comparisons across different
    setups.  Loading rebuilds an equivalent {!Profile.t} (point
    aggregates are reconstructed exactly; per-activation history is not
    retained by profiles in the first place). *)

(** The version written by {!save}.  Loading accepts any version up to
    this one (and headerless version-1 dumps); newer versions are
    rejected with an explicit error rather than misparsed. *)
val format_version : int

(** [writable_name s] is whether [s] can be written as a routine name:
    it holds no CR or LF, either of which would end its record early
    and let the rest of the name read as records of its own. *)
val writable_name : string -> bool

(** [save oc ?routine_name ?meta profile] writes the profile as CSV.
    [routine_name] adds the name table and [meta] the run-metadata line
    when available; a name is written as given.
    @raise Invalid_argument when a name is not {!writable_name}. *)
val save :
  out_channel ->
  ?routine_name:(int -> string) ->
  ?meta:Run_meta.t ->
  Profile.t ->
  unit

(** [load ic] parses a dump; returns the profile and the routine name
    table found in it (empty list when the dump had none).
    Returns [Error] with a line number on malformed input. *)
val load :
  in_channel -> (Profile.t * (int * string) list, string) result

(** [load_meta ic] is {!load} plus the run metadata, when the dump
    carries a [meta] line. *)
val load_meta :
  in_channel ->
  ( Profile.t * (int * string) list * Run_meta.t option,
    string )
  result

(** [to_string] / [of_string] / [of_string_meta] — same, via strings
    (for tests). *)
val to_string :
  ?routine_name:(int -> string) ->
  ?meta:Run_meta.t ->
  Profile.t ->
  string

val of_string : string -> (Profile.t * (int * string) list, string) result

val of_string_meta :
  string ->
  ( Profile.t * (int * string) list * Run_meta.t option,
    string )
  result

(** [render_report ~routine_name profile] is the canonical textual
    rendering used by [aprof report]: the profile table followed by the
    dynamic-input-volume line.  Shared with the golden-file regression
    tests so the CLI output is pinned. *)
val render_report : routine_name:(int -> string) -> Profile.t -> string
