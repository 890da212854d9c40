(** Versioned on-disk persistence of fitted cost models.

    A store holds, per (routine, metric) pair, the penalized-selection
    result of one profiling run — chosen class, coefficients, bootstrap
    confidence, power-law exponent interval — plus the
    {!Aprof_core.Run_meta} identity of the run, so that two stores can be
    compared by {!Cost_diff} (and refused when they describe incomparable
    runs).

    A store is a {!Aprof_util.Line_record} file, as a profile dump is
    (that module owns the layout: fields, line ends, the header and the
    rule that no blank is trimmed), opened by a [costmodel,<version>]
    header: versions newer than {!format_version} are rejected with an
    explicit error rather than misparsed.  Routine names come last on
    their line, verbatim, so that names holding commas or leading and
    trailing blanks survive.  Metrics are written as
    {!Aprof_core.Profile_io.metric_name} tokens. *)

type metric = [ `Drms | `Rms ]

type entry = {
  routine : string;  (** routine name (stable across runs, unlike ids) *)
  metric : metric;
  cls : Fit_basis.cls;
  coefs : float array;
  n_points : int;  (** points the fit saw *)
  r2 : float;
  confidence : float;  (** bootstrap class agreement, [0,1] *)
  exponent : (float * float * float) option;  (** (k, lo, hi) *)
}

type t = { meta : Aprof_core.Run_meta.t option; entries : entry list }

(** The version {!to_string} writes; loading rejects anything newer. *)
val format_version : int

val create : ?meta:Aprof_core.Run_meta.t -> entry list -> t

(** [analyze ?bootstrap ?seed ~routine_name profile] fits every
    routine of [profile] after folding its thread dimension away
    ({!Aprof_core.Profile.merge_threads}): {!Fit_select.select} on the
    worst-case drms and rms curves, one entry per (routine, metric)
    whose curve supports a fit (at least 3 distinct input sizes).
    [bootstrap] and [seed] pass through to the selection. *)
val analyze :
  ?bootstrap:int ->
  ?seed:int ->
  routine_name:(int -> string) ->
  Aprof_core.Profile.t ->
  entry list

(** [find t ~routine ~metric] — the stored model, if any. *)
val find : t -> routine:string -> metric:metric -> entry option

(** [routines t] — distinct routine names, sorted. *)
val routines : t -> string list

(** [to_string t] is the store's text.
    @raise Invalid_argument when the store holds what {!of_string} could
    not return: a routine name with a CR or LF, run metadata that
    {!Aprof_core.Run_meta.write} refuses, a present exponent whose [k]
    is nan (a missing one is written as nan), or a coefficient count
    other than its class's {!Fit_basis.param_count}. *)
val to_string : t -> string

(** [of_string s] parses a store; [Error] carries a line number.  A
    model line whose coefficient count is not its class's
    {!Fit_basis.param_count} is an error. *)
val of_string : string -> (t, string) result

(** [load path] is {!of_string} of the file at [path]; a file that
    cannot be read is an [Error] too. *)
val load : string -> (t, string) result
