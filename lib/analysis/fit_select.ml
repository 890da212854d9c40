type selection = {
  best : Fit_solve.fit;
  ranking : (Fit_solve.fit * float) list;
  n_points : int;
  confidence : float;
  exponent : (float * float * float) option;
}

(* AICc of a fit with [params] coefficients (k = params + 1, counting
   the noise variance) and relative-weighted residual sum [rss]. *)
let score ~n_points ~params ~rss =
  let m = float_of_int n_points in
  (* An exact fit has RSS = 0 and an unbounded log-likelihood; floor the
     mean squared relative residual at 2e-12 so exact fits compare by
     parameter count instead of -infinity. *)
  let base = m *. log (Float.max (rss /. m) 2e-12) in
  let k = float_of_int (params + 1) in
  (* The small-sample term 2k(k+1)/(m-k-1) divides by zero at the
     admissibility edge: a class is admitted at n_points = params + 2,
     where m - k - 1 = 0.  The clamp to 0.5 charges such a class
     4k(k+1) there (80 for a 3-parameter class at m = 5), so on a sweep
     of few sizes the richer classes are priced out and a simpler one
     wins at low confidence.  Bootstrap resamples keep the sample's
     point count, so they meet this edge exactly when the sample does. *)
  let denom = Float.max 0.5 (m -. k -. 1.) in
  base +. (2. *. k) +. (2. *. k *. (k +. 1.) /. denom)

(* Relative-error weighting.  Empirical cost measurements carry noise
   roughly proportional to their magnitude, so an unweighted RSS is
   dominated by the few largest inputs and the parameter penalty never
   bites — exactly the regime where the extra cubic column pays for
   itself by chasing the top point.  Weighting each residual by 1/y^2
   makes the per-point contributions commensurate and the information
   criteria honest.  The weighted RSS is dimensionless (a mean squared
   relative error), which is what [score]'s floor assumes. *)
let relative_weights points =
  let median_abs =
    match List.map (fun (_, y) -> Float.abs y) points with
    | [] -> 0.
    | ys -> Aprof_util.Stats.percentile 50. ys
  in
  (* Floor each point's scale at a small fraction of the median
     magnitude: a routine whose cost happens to measure (near) zero at
     one input must not receive a near-infinite weight and drag every
     fit through that point. *)
  Array.of_list
    (List.map
       (fun (_, y) ->
         let d =
           Float.max (Float.abs y) (Float.max (1e-3 *. median_abs) 1e-9)
         in
         1. /. (d *. d))
       points)

let admissible_fits points sample =
  let n_points = List.length points in
  let weights = relative_weights points in
  List.filter_map
    (fun cls ->
      if n_points < Fit_basis.param_count cls + 2 then None
      else
        match Fit_solve.fit_sample ~weights cls sample with
        | None -> None
        | Some fit ->
          (* A non-positive leading coefficient is not an asymptotic
             claim of this class; drop the candidate. *)
          let plausible =
            match Fit_basis.leading_coef cls fit.Fit_solve.coefs with
            | None -> true
            | Some c -> c > 0.
          in
          if not plausible then None
          else
            let s =
              score ~n_points ~params:fit.Fit_solve.params
                ~rss:fit.Fit_solve.rss
            in
            if Float.is_finite s then Some (fit, s) else None)
    Fit_basis.all

let select_core points =
  let sample = Fit_solve.sample points in
  if Fit_solve.sample_distinct sample < 3 then None
  else
    match admissible_fits points sample with
    | [] -> None
    | fits ->
      let ranking =
        List.sort
          (fun (f1, s1) (f2, s2) ->
            compare
              (s1, f1.Fit_solve.params, Fit_basis.order f1.Fit_solve.cls)
              (s2, f2.Fit_solve.params, Fit_basis.order f2.Fit_solve.cls))
          fits
      in
      Some (fst (List.hd ranking), ranking)

let select ?(bootstrap = 120) ?(seed = 1) points =
  let points = List.filter (fun (_, y) -> Float.is_finite y) points in
  match select_core points with
  | None -> None
  | Some (best, ranking) ->
    let n_points = List.length points in
    let exponent_estimate = Fit_solve.power_law points in
    let confidence, exponent =
      if bootstrap <= 0 then
        ( 1.,
          Option.map (fun (_, k, _) -> (k, k, k)) exponent_estimate )
      else begin
        let rng = Aprof_util.Rng.create (seed lxor 0x5f17) in
        let arr = Array.of_list points in
        let agree = ref 0 and resolved = ref 0 in
        let exponents = ref [] in
        for _ = 1 to bootstrap do
          let sample =
            List.init n_points (fun _ ->
                arr.(Aprof_util.Rng.int rng n_points))
          in
          (match select_core sample with
          | Some (b, _) ->
            incr resolved;
            if b.Fit_solve.cls = best.Fit_solve.cls then incr agree
          | None -> ());
          match Fit_solve.power_law sample with
          | Some (_, k, _) -> exponents := k :: !exponents
          | None -> ()
        done;
        let confidence =
          if !resolved = 0 then 0.
          else float_of_int !agree /. float_of_int !resolved
        in
        let exponent =
          match (exponent_estimate, !exponents) with
          | Some (_, k, _), (_ :: _ as ks) when List.length ks >= 10 ->
            let lo = Aprof_util.Stats.percentile 2.5 ks in
            let hi = Aprof_util.Stats.percentile 97.5 ks in
            Some (k, lo, hi)
          | Some (_, k, _), _ -> Some (k, k, k)
          | None, _ -> None
        in
        (confidence, exponent)
      end
    in
    Some { best; ranking; n_points; confidence; exponent }
