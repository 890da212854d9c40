(** Least-squares machinery under the model family.

    Everything here is defensive about degenerate input: too few distinct
    abscissae, rank-deficient designs, non-finite or non-positive
    observations (log-log fits) all yield [None] instead of NaN
    coefficients — a NaN produced here would otherwise silently poison
    every selection and diff built on top. *)

(** [fit_terms ?weights ~terms points] solves the weighted least-squares
    problem over an arbitrary design: minimize
    [sum_i w_i * (y_i - sum_j c_j * term_j x_i)^2].  Returns
    [(coefs, rss, r2)]; both [rss] and [r2] are computed under the same
    weights as the fit (with unit weights, the plain unweighted
    residuals).  [None] when the
    normal equations are singular — collinear or all-zero columns, fewer
    points than terms.  Weights default to 1 and must be positive.

    Columns are rescaled to unit infinity-norm before elimination so
    that mixing [1] with [n^3] over large inputs stays well-conditioned. *)
val fit_terms :
  ?weights:float array ->
  terms:(float -> float) list ->
  (float * float) list ->
  (float array * float * float) option

type fit = {
  cls : Fit_basis.cls;
  coefs : float array;  (** in {!Fit_basis.columns} order; plateau [c0;c1;n0] *)
  rss : float;  (** residual sum of squares, under the fit's weights *)
  r2 : float;  (** under the fit's weights *)
  params : int;  (** {!Fit_basis.param_count} *)
}

(** A point set prepared for fitting: its inputs are sorted once, and
    the order is shared by the distinct-input guard and the plateau
    scan of every class fitted to it. *)
type sample

val sample : (int * float) list -> sample

(** [sample_distinct s] — distinct input count of [s], as
    {!distinct_inputs}. *)
val sample_distinct : sample -> int

(** [fit_sample ?weights cls s] is {!fit_cls} on the points of [s],
    reusing their sort; [weights] align with the points in the order
    given to {!sample}. *)
val fit_sample : ?weights:float array -> Fit_basis.cls -> sample -> fit option

(** [fit_cls ?weights cls points] fits one class to [(input, cost)]
    points.  Classes other than [Plateau] go through {!fit_terms} on
    their {!Fit_basis.columns}.

    [Plateau] takes the least-RSS breakpoint n0 over the distinct inputs
    (all but the first and last: two inputs must lie on the growing
    side, one on the plateau), ties to the smallest n0.  A screen finds
    it without solving every candidate.  With the points sorted by
    input once, each breakpoint's weighted RSS has an O(1) closed form
    in centered prefix moments.  That screened RSS is exact up to a
    rounding allowance: a multiple of (m + 4) * eps * sum w y^2, scaled
    by the conditioning of the candidate's [1, min(n, n0)] design.  The
    candidate with the least screened RSS plus allowance is solved by
    {!fit_terms} first.  Every candidate whose screened RSS minus its
    allowance exceeds that solved RSS must solve to more, and is
    skipped; the rest are solved in order under the same tie rule.  So
    [coefs], [rss] and [r2] are bit-for-bit those of solving every
    candidate, at O(m log m) for the sort plus O(m) per solved
    candidate, instead of O(m) for each of the d distinct inputs.  A
    constant curve ties on every breakpoint, and all are solved.

    [None] on degenerate input (fewer than 3 distinct inputs, singular
    design, or a plateau with no room for a breakpoint). *)
val fit_cls :
  ?weights:float array -> Fit_basis.cls -> (int * float) list -> fit option

(** [power_law points] is [(c, k, r2)] with cost ~ c * n^k from the
    log-log regression.  Points with non-positive input, non-positive
    cost, or non-finite cost are dropped first — a single zero-cost
    observation must not turn the whole regression into NaNs — and
    [None] is returned when fewer than 3 distinct positive points
    survive. *)
val power_law : (int * float) list -> (float * float * float) option

(** [distinct_inputs points] — distinct abscissae count, the guard shared
    by every estimator. *)
val distinct_inputs : (int * float) list -> int
