(** Saving and loading profiles.

    A dump is a {!Aprof_util.Line_record} file (that module owns the
    layout: fields, line ends, the header and the rule that no blank is
    trimmed, so a routine name ending in a space reads back with it),
    opened by a [format,<version>] header (see {!format_version}; dumps
    without the header are read as the original version-1 format),
    followed by records of three kinds, one line each:

    - [agg,<tid>,<routine>,<activations>,<sum_rms>,<sum_drms>,<total_cost>]
      — the activation totals;
    - [ops,<tid>,<routine>,<plain>,<induced_thread>,<induced_external>]
      — the first-read operation counters;
    - [point,<tid>,<routine>,<metric>,<input>,<calls>,<max>,<min>,<sum>,<sumsq>]
      — one performance point ([metric] is [drms] or [rms]).

    A [routine,<id>,<name>] line per interned routine makes dumps
    self-describing, and (since format 3) an optional
    [meta,<workload>,<seed>,<scale>,<threads>,<scheduler>] line records
    the run that produced the dump ({!Run_meta}) — the
    regression watch uses it to refuse comparisons across different
    setups.  Loading rebuilds an equivalent {!Profile.t} (point
    aggregates are reconstructed exactly; per-activation history is not
    retained by profiles in the first place). *)

(** The version {!to_string} writes.  Loading accepts any version up to
    this one (and headerless version-1 dumps); newer versions are
    rejected with an explicit error rather than misparsed. *)
val format_version : int

(** The [drms]/[rms] token of a metric, in profile dumps and model
    stores alike. *)
val metric_name : [ `Drms | `Rms ] -> string

(** [metric f] reads a {!metric_name} token as the next field. *)
val metric : Aprof_util.Line_record.fields -> [ `Drms | `Rms ]

(** [to_string ?routine_name ?meta profile] is the dump of [profile].
    [routine_name] adds the name table and [meta] the run-metadata line;
    a name is written as given.
    @raise Invalid_argument when a name or [meta] holds text the reader
    could not return ({!Aprof_util.Line_record}). *)
val to_string :
  ?routine_name:(int -> string) ->
  ?meta:Run_meta.t ->
  Profile.t ->
  string

(** [of_string s] parses a dump: the profile, the routine name table
    found in it (empty when the dump had none) and the run metadata,
    when the dump carries a [meta] line.  Returns [Error] with a line
    number on malformed input. *)
val of_string :
  string ->
  ( Profile.t * (int * string) list * Run_meta.t option,
    string )
  result

(** [load path] is {!of_string} of the file at [path]; a file that
    cannot be read is an [Error] too. *)
val load :
  string ->
  ( Profile.t * (int * string) list * Run_meta.t option,
    string )
  result

(** [render_report ~routine_name profile] is the canonical textual
    rendering used by [aprof report]: the profile table followed by the
    dynamic-input-volume line.  Shared with the golden-file regression
    tests so the CLI output is pinned. *)
val render_report : routine_name:(int -> string) -> Profile.t -> string
