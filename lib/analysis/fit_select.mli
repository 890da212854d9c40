(** Penalized model selection with bootstrap confidence.

    The former estimator ranked the fitted classes by raw r^2.  Under the
    nested designs of {!Fit_basis} that ranking is broken by
    construction: adding columns can only reduce the residual, so the
    cubic design out-scores every class below it on any noisy curve.
    Selection here ranks by small-sample-corrected AIC (AICc, the
    default) or BIC, both of which charge models for their parameter
    count:

    {v
      AICc = m ln(RSS/m) + 2k + 2k(k+1)/(m-k-1)      k = params + 1
      BIC  = m ln(RSS/m) + k ln m
    v}

    Classes whose leading coefficient comes out non-positive are excluded
    — a negative n^3 term is noise absorption, not an asymptotic claim.

    Confidence comes from a case-resampling bootstrap: the points are
    resampled with replacement [bootstrap] times, selection is re-run on
    each resample, and the chosen class's confidence is the fraction of
    resamples that agree.  The same resamples give a percentile interval
    for the log-log power-law exponent.  Everything is deterministic per
    [seed]. *)

type criterion = [ `Aicc | `Bic ]

type selection = {
  best : Fit_solve.fit;  (** the penalized winner *)
  score : float;  (** its criterion value *)
  ranking : (Fit_solve.fit * float) list;
      (** every admissible fit with its score, best first *)
  by_r2 : Fit_solve.fit list;
      (** the same fits ranked by raw r^2 (descending) — the legacy
          selector, kept to measure how often it overfits *)
  n_points : int;
  confidence : float;  (** bootstrap agreement on [best.cls], in [0,1] *)
  exponent : (float * float * float) option;
      (** power-law exponent (estimate, lo, hi) with a bootstrap 95%
          percentile interval; [None] when the log-log fit is degenerate *)
}

(** [score ~criterion ~n_points ~params ~rss ~scale] is the penalized
    criterion value; [scale] (mean squared observation) regularizes
    RSS = 0 on exact fits.  Exposed for tests and the bench battery. *)
val score :
  criterion:criterion ->
  n_points:int ->
  params:int ->
  rss:float ->
  scale:float ->
  float

(** [relative_weights points] — the per-point weights every fit of a
    selection runs under: 1/y^2, with |y| floored at 1e-3 of the median
    magnitude (and at 1e-9) so that a near-zero cost cannot dominate.
    Exposed for tests. *)
val relative_weights : (int * float) list -> float array

(** [select ?criterion ?bootstrap ?seed points] fits every admissible
    class and picks the criterion minimum (ties to fewer parameters,
    then lower asymptotic order).  [None] when fewer than 3 distinct
    inputs survive, or no class is admissible.  [bootstrap] defaults to
    120 resamples; [0] skips the bootstrap (confidence 1.0, no exponent
    interval). *)
val select :
  ?criterion:criterion ->
  ?bootstrap:int ->
  ?seed:int ->
  (int * float) list ->
  selection option
