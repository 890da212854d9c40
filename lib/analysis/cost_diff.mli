(** Comparing two fitted-model stores: the cost-function regression
    watch.

    [diff old new] matches entries by (routine name, metric) and emits
    findings of three kinds:

    - {b class change} — the penalized selection moved to a different
      complexity class.  A move up the {!Fit_basis.order} ladder is a
      regression, a move down an improvement.  The verdict is
      confidence-gated: unless both runs chose their class with at least
      [min_confidence] bootstrap agreement, the change is reported as
      informational noise, not a regression — a flaky selection must not
      fail CI.
    - {b slope change} — same class, but the leading coefficient moved
      by at least [slope_ratio] in either direction: the asymptotic
      claim stands, the constant factor regressed (or improved).
    - {b divergence change} — the paper's Fig. 4 signature.  Within one
      run a routine is {e divergent} when its rms curve keeps growing
      (class order at least linear) while its drms curve saturates
      (order at most logarithmic — constant, plateau, or log): the
      routine re-reads a bounded working set that rms keeps charging
      for.  A routine becoming divergent (or ceasing to be) between the
      runs is reported, confidence-gated like class changes.

    Stores carrying {!Aprof_core.Run_meta} are refused ([Error]) when
    the metadata is incomparable ({!Aprof_core.Run_meta.compatible}); a
    store without metadata is refused unless [require_meta] is
    [false]. *)

type severity = Regression | Improvement | Info

type change =
  | Class_change of {
      old_cls : Fit_basis.cls;
      new_cls : Fit_basis.cls;
      old_confidence : float;
      new_confidence : float;
    }
  | Slope_change of {
      cls : Fit_basis.cls;
      old_coef : float;
      new_coef : float;
      ratio : float;
    }
  | Divergence_change of { was_divergent : bool; now_divergent : bool }

type finding = {
  routine : string;
  metric : Model_store.metric option;
      (** [None] for per-routine findings (divergence) *)
  severity : severity;
  change : change;
}

type report = {
  findings : finding list;  (** sorted by (routine, metric) *)
  compared : int;  (** (routine, metric) pairs present in both stores *)
  only_old : string list;  (** routines absent from the new store *)
  only_new : string list;
  min_confidence : float;
  slope_ratio : float;
}

(** [diff ?min_confidence ?slope_ratio ?require_meta old new] compares
    the stores.  Defaults: [min_confidence = 0.7], [slope_ratio = 2.0],
    [require_meta = true].  [Error] describes why the stores are
    incomparable. *)
val diff :
  ?min_confidence:float ->
  ?slope_ratio:float ->
  ?require_meta:bool ->
  Model_store.t ->
  Model_store.t ->
  (report, string) result

(** [has_regression report] — any finding with severity [Regression]. *)
val has_regression : report -> bool

(** [render report] — the human-readable diff, deterministic line order
    (pinned by a golden test). *)
val render : report -> string

(** [to_json report] — machine-readable summary (hand-rolled, flat). *)
val to_json : report -> string
