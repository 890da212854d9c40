(** Versioned on-disk persistence of fitted cost models.

    A store holds, per (routine, metric) pair, the penalized-selection
    result of one profiling run — chosen class, coefficients, bootstrap
    confidence, power-law exponent interval — plus the {!Run_meta}
    identity of the run, so that two stores can be compared by
    {!Cost_diff} (and refused when they describe incomparable runs).

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

type t = { meta : Run_meta.t option; entries : entry list }

(** The version written by {!save}; loading rejects anything newer. *)
val format_version : int

val create : ?meta:Run_meta.t -> entry list -> t

(** [find t ~routine ~metric] — the stored model, if any. *)
val find : t -> routine:string -> metric:metric -> entry option

(** [routines t] — distinct routine names, sorted. *)
val routines : t -> string list

val to_string : t -> string

(** [of_string s] parses a dump; [Error] carries a line number.  A
    model line whose coefficient count is not its class's
    {!Fit_basis.param_count} is an error. *)
val of_string : string -> (t, string) result

val save : out_channel -> t -> unit
val load : in_channel -> (t, string) result
