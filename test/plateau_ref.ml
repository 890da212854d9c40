(* Reference plateau fit: the breakpoint scan that solves the weighted
   [1, min(n, n0)] design at every candidate breakpoint, O(d * m) per
   fit.  {!Aprof_analysis.Fit_solve} screens the candidates with a
   closed-form RSS and solves only the few that can win; this verbatim
   copy of the full scan is the differential oracle that the screened
   fit must match bit for bit. *)

open Aprof_analysis
open Fit_solve

let float_points points =
  List.map (fun (n, y) -> (float_of_int n, y)) points

let fit_plateau ?weights points =
  let fpoints = float_points points in
  let inputs = List.sort_uniq compare (List.map fst fpoints) in
  (* A breakpoint is only identified when at least two distinct inputs
     lie on the growing side and at least one on the plateau. *)
  let candidates =
    match inputs with
    | _ :: _ :: _ ->
      List.filteri (fun i _ -> i >= 1 && i < List.length inputs - 1) inputs
    | _ -> []
  in
  List.fold_left
    (fun best n0 ->
      match
        fit_terms ?weights
          ~terms:[ (fun _ -> 1.); (fun n -> Float.min n n0) ]
          fpoints
      with
      | None -> best
      | Some (coefs, rss, r2) -> (
        let fit =
          {
            cls = Fit_basis.Plateau;
            coefs = [| coefs.(0); coefs.(1); n0 |];
            rss;
            r2;
            params = 3;
          }
        in
        match best with
        | Some b when b.rss <= rss -> best
        | _ -> Some fit))
    None candidates

(* [fit_cls]'s guard in front of the scan. *)
let fit ?weights points =
  if distinct_inputs points < 3 then None else fit_plateau ?weights points
