type criterion = [ `Aicc | `Bic ]

type selection = {
  best : Fit_solve.fit;
  score : float;
  ranking : (Fit_solve.fit * float) list;
  by_r2 : Fit_solve.fit list;
  n_points : int;
  confidence : float;
  exponent : (float * float * float) option;
}

let score ~criterion ~n_points ~params ~rss ~scale =
  let m = float_of_int n_points in
  (* An exact fit has RSS = 0 and an unbounded log-likelihood; floor the
     per-point residual at a tiny fraction of the observation scale so
     exact fits compare by parameter count instead of -infinity. *)
  let floor_ = Float.max (1e-12 *. (scale +. 1.)) 1e-300 in
  let base = m *. log (Float.max (rss /. m) floor_) in
  let k = float_of_int (params + 1) in
  match criterion with
  | `Bic -> base +. (k *. log m)
  | `Aicc ->
    (* Clamp the small-sample denominator: admissibility already demands
       n_points >= params + 2, but resampled bootstrap sets can shrink. *)
    let denom = Float.max 0.5 (m -. k -. 1.) in
    base +. (2. *. k) +. (2. *. k *. (k +. 1.) /. denom)

(* Relative-error weighting.  Empirical cost measurements carry noise
   roughly proportional to their magnitude, so an unweighted RSS is
   dominated by the few largest inputs and the parameter penalty never
   bites — exactly the regime where the extra cubic column pays for
   itself by chasing the top point.  Weighting each residual by 1/y^2
   makes the per-point contributions commensurate and the information
   criteria honest.  The weighted RSS is dimensionless (a mean squared
   relative error), hence [~scale:1.] below. *)
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

let admissible_fits ~criterion points sample =
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
              score ~criterion ~n_points ~params:fit.Fit_solve.params
                ~rss:fit.Fit_solve.rss ~scale:1.
            in
            if Float.is_finite s then Some (fit, s) else None)
    Fit_basis.all

let select_core ~criterion points =
  let sample = Fit_solve.sample points in
  if Fit_solve.sample_distinct sample < 3 then None
  else
    match admissible_fits ~criterion points sample with
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
      (* Descending r^2; exact ties (noiseless data) to the simpler
         class, which is the charitable reading of the legacy ranking. *)
      let by_r2 =
        List.sort
          (fun f1 f2 ->
            match compare f2.Fit_solve.r2 f1.Fit_solve.r2 with
            | 0 ->
              compare
                (Fit_basis.order f1.Fit_solve.cls)
                (Fit_basis.order f2.Fit_solve.cls)
            | c -> c)
          (List.map fst fits)
      in
      let best, best_score = List.hd ranking in
      Some (best, best_score, ranking, by_r2)

let select ?(criterion = `Aicc) ?(bootstrap = 120) ?(seed = 1) points =
  let points = List.filter (fun (_, y) -> Float.is_finite y) points in
  match select_core ~criterion points with
  | None -> None
  | Some (best, best_score, ranking, by_r2) ->
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
          (match select_core ~criterion sample with
          | Some (b, _, _, _) ->
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
    Some
      {
        best;
        score = best_score;
        ranking;
        by_r2;
        n_points;
        confidence;
        exponent;
      }
