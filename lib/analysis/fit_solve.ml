let r_squared ~ys ~predicted =
  let n = float_of_int (List.length ys) in
  let mean = List.fold_left ( +. ) 0. ys /. n in
  let ss_tot = List.fold_left (fun acc y -> acc +. ((y -. mean) ** 2.)) 0. ys in
  let ss_res =
    List.fold_left2 (fun acc y p -> acc +. ((y -. p) ** 2.)) 0. ys predicted
  in
  if ss_tot < 1e-12 then if ss_res < 1e-12 then 1. else 0.
  else Float.max 0. (1. -. (ss_res /. ss_tot))

(* Gaussian elimination with partial pivoting on the normal equations.
   [a] is k x k, [b] length k; both are clobbered.  Returns false on a
   (near-)singular pivot. *)
let solve_inplace a b =
  let k = Array.length b in
  let ok = ref true in
  (try
     for col = 0 to k - 1 do
       let pivot = ref col in
       for row = col + 1 to k - 1 do
         if Float.abs a.(row).(col) > Float.abs a.(!pivot).(col) then
           pivot := row
       done;
       if Float.abs a.(!pivot).(col) < 1e-10 then raise Exit;
       if !pivot <> col then begin
         let tmp = a.(col) in
         a.(col) <- a.(!pivot);
         a.(!pivot) <- tmp;
         let tb = b.(col) in
         b.(col) <- b.(!pivot);
         b.(!pivot) <- tb
       end;
       for row = col + 1 to k - 1 do
         let f = a.(row).(col) /. a.(col).(col) in
         for j = col to k - 1 do
           a.(row).(j) <- a.(row).(j) -. (f *. a.(col).(j))
         done;
         b.(row) <- b.(row) -. (f *. b.(col))
       done
     done;
     for col = k - 1 downto 0 do
       let s = ref b.(col) in
       for j = col + 1 to k - 1 do
         s := !s -. (a.(col).(j) *. b.(j))
       done;
       b.(col) <- !s /. a.(col).(col)
     done
   with Exit -> ok := false);
  !ok

let fit_terms ?weights ~terms points =
  let m = List.length points in
  let k = List.length terms in
  if m < k || k = 0 then None
  else begin
    let w =
      match weights with
      | Some w when Array.length w = m -> w
      | Some _ -> invalid_arg "Fit_solve.fit_terms: weights/points mismatch"
      | None -> Array.make m 1.
    in
    (* The design, row-major in one flat array: [raw.(i * k + j)] is
       term j at point i, unscaled; the residuals reuse it. *)
    let terms = Array.of_list terms in
    let ys = Array.make m 0. in
    let raw = Array.make (m * k) 0. in
    List.iteri
      (fun i (x, y) ->
        ys.(i) <- y;
        for j = 0 to k - 1 do
          raw.((i * k) + j) <- terms.(j) x
        done)
      points;
    (* Column scaling: normalize each column of the *weighted* design
       (sqrt w_i * term_j x_i) to unit infinity-norm.  This keeps the
       normal equations solvable when 1 and n^3 share a design, and —
       because the weights are folded in before scaling — keeps every
       diagonal entry of the normal matrix at least 1 even when the
       weights themselves span twenty orders of magnitude (as 1/y^2
       weights do on a cubic curve). *)
    let scale = Array.make k 0. in
    for i = 0 to m - 1 do
      let sw = sqrt w.(i) in
      for j = 0 to k - 1 do
        scale.(j) <- Float.max scale.(j) (sw *. Float.abs raw.((i * k) + j))
      done
    done;
    if Array.exists (fun s -> s < 1e-300 || not (Float.is_finite s)) scale then
      None
    else begin
      let a = Array.make_matrix k k 0. in
      let b = Array.make k 0. in
      let row = Array.make k 0. in
      for i = 0 to m - 1 do
        for j = 0 to k - 1 do
          row.(j) <- raw.((i * k) + j) /. scale.(j)
        done;
        for p = 0 to k - 1 do
          let ap = a.(p) in
          for q = 0 to k - 1 do
            ap.(q) <- ap.(q) +. (w.(i) *. row.(p) *. row.(q))
          done;
          b.(p) <- b.(p) +. (w.(i) *. row.(p) *. ys.(i))
        done
      done;
      if not (solve_inplace a b) then None
      else begin
        let coefs = Array.mapi (fun j c -> c /. scale.(j)) b in
        if Array.exists (fun c -> not (Float.is_finite c)) coefs then None
        else begin
          (* RSS and r^2 under the same weighting as the fit itself; with
             unit weights this reduces exactly to the unweighted
             residuals. *)
          let wsum = Array.fold_left ( +. ) 0. w in
          let mean =
            let s = ref 0. in
            Array.iteri (fun i y -> s := !s +. (w.(i) *. y)) ys;
            !s /. wsum
          in
          let ss_tot = ref 0. and rss = ref 0. in
          for i = 0 to m - 1 do
            let pred = ref 0. in
            for j = 0 to k - 1 do
              pred := !pred +. (coefs.(j) *. raw.((i * k) + j))
            done;
            let y = ys.(i) in
            ss_tot := !ss_tot +. (w.(i) *. ((y -. mean) ** 2.));
            rss := !rss +. (w.(i) *. ((y -. !pred) ** 2.))
          done;
          let r2 =
            if !ss_tot < 1e-12 then if !rss < 1e-12 then 1. else 0.
            else Float.max 0. (1. -. (!rss /. !ss_tot))
          in
          Some (coefs, !rss, r2)
        end
      end
    end
  end

let linreg points =
  match fit_terms ~terms:[ (fun _ -> 1.); (fun x -> x) ] points with
  | Some (coefs, _, _) -> Some (coefs.(0), coefs.(1))
  | None -> None

type fit = {
  cls : Fit_basis.cls;
  coefs : float array;
  rss : float;
  r2 : float;
  params : int;
}

let distinct_inputs points =
  List.sort_uniq compare (List.map fst points) |> List.length

let float_points points =
  List.map (fun (n, y) -> (float_of_int n, y)) points

type sample = {
  fpoints : (float * float) list;  (* as given, inputs as floats *)
  xs : float array;
  ys : float array;
  order : int array;  (* point indices by ascending input *)
  group : int array;  (* [group.(k)]: index in [inputs] of point [order.(k)] *)
  inputs : float array;  (* distinct inputs, ascending *)
  distinct : int;  (* distinct integer inputs *)
}

let sample points =
  let arr = Array.of_list points in
  let m = Array.length arr in
  let order = Array.init m Fun.id in
  Array.stable_sort (fun i j -> Int.compare (fst arr.(i)) (fst arr.(j))) order;
  let xs = Array.map (fun (n, _) -> float_of_int n) arr in
  let group = Array.make m 0 in
  let inputs = ref [] and n_inputs = ref 0 and distinct = ref 0 in
  Array.iteri
    (fun k i ->
      if k = 0 || fst arr.(i) <> fst arr.(order.(k - 1)) then incr distinct;
      (* Distinct ints above 2^53 can share a float; the plateau scan
         counts float breakpoints, as the float design sees them. *)
      if k = 0 || xs.(i) <> xs.(order.(k - 1)) then begin
        inputs := xs.(i) :: !inputs;
        incr n_inputs
      end;
      group.(k) <- !n_inputs - 1)
    order;
  {
    fpoints = float_points points;
    xs;
    ys = Array.map snd arr;
    order;
    group;
    inputs = Array.of_list (List.rev !inputs);
    distinct = !distinct;
  }

let sample_distinct s = s.distinct

(* Rounding allowance of the plateau screen, in units of
   (m + 4) * eps * g * sum w y^2 (see [plateau_screen]). *)
let screen_slack = 32.

(* The breakpoint screen.  For a breakpoint n0 the plateau design is
   [1, z] with z = min(x, n0), and its least-squares RSS has the closed
   form  M2y - Czy^2 / M2z  in the weighted centered moments of y and z.
   With the points sorted by input, z = x on the prefix up to n0 and
   z = n0 (no spread, no comoment) on the suffix, so Chan's pairwise
   update combines running prefix moments of x and y with the suffix's
   weight and mean of y into M2z and Czy in O(1) per candidate.

   Each screened RSS carries an allowance of
   [screen_slack * (m + 4) * eps * g * sum w y^2], where
   g = sum w z^2 / M2z is the conditioning of the candidate's design
   (large when z barely moves).  The allowance bounds the screen's own
   rounding error plus the downward rounding error of the residual sum
   [fit_terms] evaluates — first-order terms of (m + small) * eps *
   sqrt g * sum w y^2 — with room to spare.  Rounding in the solved
   coefficients needs none: any coefficient error only raises the RSS
   a solve reports.  So a candidate whose screened RSS minus its
   allowance exceeds some solved candidate's RSS solves to more than
   that, and cannot be the scan's first minimum.  Returns those lower
   bounds over [s.inputs] ([neg_infinity] where the closed form breaks
   down) and the candidate to solve first, the one with the least
   screened RSS plus allowance; [None] when the weights or costs are
   unfit for the screen. *)
let plateau_screen w s =
  let m = Array.length s.xs in
  let d = Array.length s.inputs in
  if
    d < 3
    || Array.length w <> m
    || Array.exists (fun wi -> not (wi > 0. && Float.is_finite wi)) w
    || Array.exists (fun y -> not (Float.is_finite y)) s.ys
  then None
  else begin
    (* Running weighted moments (Welford/West) of the prefix ending at
       each input, and the weight and mean of y past it. *)
    let pw = Array.make d 0. and px = Array.make d 0. in
    let py = Array.make d 0. and pxx = Array.make d 0. in
    let pxy = Array.make d 0. in
    let sw = ref 0. and mx = ref 0. and my = ref 0. in
    let mxx = ref 0. and mxy = ref 0. and syy = ref 0. in
    Array.iteri
      (fun k i ->
        let x = s.xs.(i) and y = s.ys.(i) and wi = w.(i) in
        let w' = !sw +. wi in
        let dx = x -. !mx and dy = y -. !my in
        mx := !mx +. (dx *. wi /. w');
        my := !my +. (dy *. wi /. w');
        mxx := !mxx +. (wi *. dx *. (x -. !mx));
        mxy := !mxy +. (wi *. dx *. (y -. !my));
        syy := !syy +. (wi *. y *. y);
        sw := w';
        let g = s.group.(k) in
        pw.(g) <- !sw;
        px.(g) <- !mx;
        py.(g) <- !my;
        pxx.(g) <- !mxx;
        pxy.(g) <- !mxy)
      s.order;
    let ybar = !my in
    let m2y = ref 0. in
    Array.iteri
      (fun i y -> m2y := !m2y +. (w.(i) *. (y -. ybar) *. (y -. ybar)))
      s.ys;
    let qw = Array.make d 0. and qy = Array.make d 0. in
    let sw = ref 0. and my = ref 0. in
    for k = m - 1 downto 0 do
      let g = s.group.(k) in
      if k = m - 1 || s.group.(k + 1) <> g then begin
        qw.(g) <- !sw;
        qy.(g) <- !my
      end;
      let i = s.order.(k) in
      sw := !sw +. w.(i);
      my := !my +. ((s.ys.(i) -. !my) *. w.(i) /. !sw)
    done;
    let tau =
      screen_slack *. float_of_int (m + 4) *. epsilon_float *. !syy
    in
    let lo = Array.make d neg_infinity in
    let anchor = ref 1 and anchor_hi = ref infinity in
    for j = 1 to d - 2 do
      let n0 = s.inputs.(j) in
      let wt = pw.(j) +. qw.(j) in
      let f = pw.(j) *. qw.(j) /. wt in
      let dz = n0 -. px.(j) in
      let m2z = pxx.(j) +. (dz *. dz *. f) in
      let czy = pxy.(j) +. (dz *. (qy.(j) -. py.(j)) *. f) in
      let rss = !m2y -. (czy *. czy /. m2z) in
      let zbar = ((pw.(j) *. px.(j)) +. (qw.(j) *. n0)) /. wt in
      let slack = tau *. (1. +. (wt *. zbar *. zbar /. m2z)) in
      if m2z > 0. && Float.is_finite rss && Float.is_finite slack then begin
        lo.(j) <- rss -. slack;
        if rss +. slack < !anchor_hi then begin
          anchor := j;
          anchor_hi := rss +. slack
        end
      end
    done;
    Some (lo, !anchor)
  end

(* The least-RSS breakpoint over every distinct input but the first and
   last — two inputs must lie on the growing side, one on the plateau —
   with ties to the smallest.  Candidates are solved by [fit_terms] on
   the points as given; after the screen's anchor, only those whose
   lower bound does not exceed the anchor's RSS, so the result is
   bit-for-bit that of solving every candidate. *)
let fit_plateau ?weights s =
  let d = Array.length s.inputs in
  let solved = Array.make d None in
  let solve j =
    match solved.(j) with
    | Some r -> r
    | None ->
      let n0 = s.inputs.(j) in
      let r =
        match
          fit_terms ?weights
            ~terms:[ (fun _ -> 1.); (fun n -> Float.min n n0) ]
            s.fpoints
        with
        | None -> None
        | Some (coefs, rss, r2) ->
          Some
            {
              cls = Fit_basis.Plateau;
              coefs = [| coefs.(0); coefs.(1); n0 |];
              rss;
              r2;
              params = 3;
            }
      in
      solved.(j) <- Some r;
      r
  in
  let w =
    match weights with
    | Some w -> w
    | None -> Array.make (Array.length s.xs) 1.
  in
  let keep =
    match plateau_screen w s with
    | None -> fun _ -> true
    | Some (lo, anchor) -> (
      match solve anchor with
      | Some a when Float.is_finite a.rss ->
        fun j -> j = anchor || lo.(j) <= a.rss
      | _ -> fun _ -> true)
  in
  let best = ref None in
  for j = 1 to d - 2 do
    if keep j then
      match solve j with
      | None -> ()
      | Some fit -> (
        match !best with
        | Some b when b.rss <= fit.rss -> ()
        | _ -> best := Some fit)
  done;
  !best

let fit_sample ?weights cls s =
  if s.distinct < 3 then None
  else
    match cls with
    | Fit_basis.Plateau -> fit_plateau ?weights s
    | _ -> (
      let terms = Fit_basis.columns cls in
      match fit_terms ?weights ~terms s.fpoints with
      | None -> None
      | Some (coefs, rss, r2) ->
        Some { cls; coefs; rss; r2; params = List.length terms })

let fit_cls ?weights cls points = fit_sample ?weights cls (sample points)

let power_law points =
  (* Zero or negative costs have no logarithm: drop them up front rather
     than letting a single log 0 = -inf ride through the sums. *)
  let usable =
    List.filter (fun (n, y) -> n > 0 && Float.is_finite y && y > 0.) points
  in
  if distinct_inputs usable < 3 then None
  else begin
    let logs =
      List.map (fun (n, y) -> (log (float_of_int n), log y)) usable
    in
    match linreg logs with
    | None -> None
    | Some (a, k) ->
      let predicted = List.map (fun (x, _) -> a +. (k *. x)) logs in
      Some (exp a, k, r_squared ~ys:(List.map snd logs) ~predicted)
  end
