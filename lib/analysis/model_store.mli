(** Versioned on-disk persistence of fitted cost models.

    A store holds, per (routine, metric) pair, the penalized-selection
    result of one profiling run — chosen class, coefficients, bootstrap
    confidence, power-law exponent interval — plus the
    {!Aprof_core.Run_meta} identity of the run, so that two stores can be
    compared by {!Cost_diff} (and refused when they describe incomparable
    runs).

    The format is line-oriented CSV opened by a [costmodel,<version>]
    header, in the spirit of {!Profile_io}: versions newer than
    {!format_version} are rejected with an explicit error rather than
    misparsed.  Routine names come last on their line so that names
    containing commas survive. *)

type metric = [ `Drms | `Rms ]

val metric_name : metric -> string

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

(** The version written by {!save}; loading rejects anything newer. *)
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

(** [to_string t] is the store as written by {!save}.
    @raise Invalid_argument when a routine name holds a CR or LF
    ({!Aprof_core.Profile_io.writable_name}). *)
val to_string : t -> string

(** [of_string s] parses a dump; [Error] carries a line number.  A
    model line whose coefficient count is not its class's
    {!Fit_basis.param_count} is an error. *)
val of_string : string -> (t, string) result

val save : out_channel -> t -> unit
val load : in_channel -> (t, string) result
