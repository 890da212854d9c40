(* Penalized model selection vs the legacy r^2 ranking, on a synthetic
   battery of known-class noisy curves.

   For every class in the family a batch of curves is planted
   (multiplicative gaussian noise on geometrically spaced input sizes),
   then recovered twice: by AICc-penalized selection ({!Fit_select}) and
   by the raw-r^2 ranking the estimator used to apply.  Under the nested
   designs r^2 is monotone in model size, so the legacy ranking
   gravitates to the top of the ladder — the battery quantifies exactly
   how often — while the penalized pick is gated on ">= 90% true-class
   recovery" in CI.  [fit_cost] rows track the cost of a selection (the
   regression watch runs one per routine per run) and how it grows with
   the number of distinct inputs — the profile richness drms exists to
   raise. *)

module Basis = Aprof_analysis.Fit_basis
module Solve = Aprof_analysis.Fit_solve
module Select = Aprof_analysis.Fit_select
module Rng = Aprof_util.Rng

(* The raw-r^2 pick this battery measures the penalized one against —
   no verdict uses it: the top of the admissible fits by descending r^2,
   exact ties (noiseless data) to the simpler class. *)
let r2_top (sel : Select.selection) =
  List.map fst sel.Select.ranking
  |> List.sort (fun (f1 : Solve.fit) (f2 : Solve.fit) ->
         match compare f2.Solve.r2 f1.Solve.r2 with
         | 0 -> compare (Basis.order f1.Solve.cls) (Basis.order f2.Solve.cls)
         | c -> c)
  |> List.hd

let classes : (Basis.cls * float array) list =
  [
    (Basis.Constant, [| 40. |]);
    (Basis.Plateau, [| 30.; 4.; 900. |]);
    (Basis.Logarithmic, [| 20.; 15. |]);
    (Basis.Linear, [| 40.; 3. |]);
    (Basis.Linearithmic, [| 30.; 2.; 0.7 |]);
    (Basis.Quadratic, [| 50.; 5.; 0.08 |]);
    (Basis.Quadratic_log, [| 40.; 2.; 0.05; 0.02 |]);
    (Basis.Cubic, [| 40.; 1.; 0.01; 0.002 |]);
  ]

(* 16 sizes, geometric from 8 to ~20k: wide enough to tell n^2 log n
   from n^3, dense enough for the small-sample AICc correction to
   matter. *)
let sizes =
  let rec go acc n = if n > 20000. then List.rev acc else go (int_of_float n :: acc) (n *. 1.68) in
  go [] 8.

let plant rng cls coefs ~noise =
  List.map
    (fun n ->
      let y = Basis.eval cls ~coefs (float_of_int n) in
      let factor = Float.max 0.05 (Rng.gaussian rng ~mu:1.0 ~sigma:noise) in
      (n, y *. factor))
    sizes

let noises = [ 0.05; 0.12 ]

(* Selection cost against profile richness: the wall time of one
   [select ~bootstrap:40] (what [aprof fit] spends per routine and
   metric) on a noisy plateau curve with [d] distinct inputs, one point
   each, spread over the same range for every [d]; one cell per [d]. *)
let cost_inputs = [ 16; 128; 512; 1024 ]
let cost_bootstrap = 40

let cost_curve d =
  let rng = Rng.create d in
  let step = 16384 / d in
  let coefs = [| 30.; 4.; float_of_int (8 + (d / 3 * step)) |] in
  List.init d (fun i ->
      let n = 8 + (i * step) in
      let y = Basis.eval Basis.Plateau ~coefs (float_of_int n) in
      (n, y *. Float.max 0.05 (Rng.gaussian rng ~mu:1.0 ~sigma:0.05)))

let selection_cost ~quick ppf =
  Format.fprintf ppf "  selection cost (bootstrap %d, %d cores):@."
    cost_bootstrap Exp_common.cores;
  let rounds = Exp_common.rounds ~quick in
  let samples =
    Exp_common.sample ~rounds
      (List.map
         (fun d ->
           let points = cost_curve d in
           fun time ->
             time (fun () ->
                 ignore
                   (Select.select ~bootstrap:cost_bootstrap ~seed:1 points)))
         cost_inputs)
  in
  List.iter2
    (fun d s ->
      let ms = Exp_common.Stats.summary (Array.map (fun t -> 1e3 *. t) s) in
      Format.fprintf ppf "    %5d distinct inputs: %9.1f ms@." d ms.median;
      Exp_common.emit_row ~experiment:"fit_cost" ~rounds
        ([
           ("distinct_inputs", Exp_common.Int d);
           ("bootstrap", Exp_common.Int cost_bootstrap);
         ]
        @ Exp_common.metric "select_ms" ms))
    cost_inputs samples

let run ~quick ppf =
  let seeds = if quick then 6 else 30 in
  let bootstrap = if quick then 20 else 60 in
  Exp_common.section ppf "penalized fit selection battery";
  let total = ref 0 and correct = ref 0 and r2_correct = ref 0 in
  let r2_overfit = ref 0 in
  let per_class =
    List.map
      (fun (cls, coefs) ->
        let n = ref 0 and ok = ref 0 and r2_ok = ref 0 and conf_sum = ref 0. in
        List.iter
          (fun noise ->
            for seed = 1 to seeds do
              let rng =
                Rng.create ((seed * 7919) + int_of_float (noise *. 1000.))
              in
              let points = plant rng cls coefs ~noise in
              match Select.select ~bootstrap ~seed points with
              | None -> ()
              | Some sel ->
                incr n;
                incr total;
                conf_sum := !conf_sum +. sel.Select.confidence;
                if sel.Select.best.Solve.cls = cls then begin
                  incr ok;
                  incr correct
                end;
                let top = r2_top sel in
                if top.Solve.cls = cls then begin
                  incr r2_ok;
                  incr r2_correct
                end
                else if Basis.order top.Solve.cls > Basis.order cls then
                  incr r2_overfit
            done)
          noises;
        (cls, !n, !ok, !r2_ok, !conf_sum))
      classes
  in
  Format.fprintf ppf "  %-14s %8s %10s %10s %10s@." "class" "curves"
    "penalized" "r2-only" "mean conf";
  List.iter
    (fun (cls, n, ok, r2_ok, conf_sum) ->
      let pct a = 100. *. float_of_int a /. float_of_int (max 1 n) in
      Format.fprintf ppf "  %-14s %8d %9.1f%% %9.1f%% %10.2f@." (Basis.name cls)
        n (pct ok) (pct r2_ok)
        (conf_sum /. float_of_int (max 1 n));
      Exp_common.emit_row ~experiment:"fit"
        [
          ("class", Exp_common.String (Basis.token cls));
          ("curves", Exp_common.Int n);
          ("penalized_accuracy", Exp_common.Float (pct ok /. 100.));
          ("r2_accuracy", Exp_common.Float (pct r2_ok /. 100.));
          ( "mean_confidence",
            Exp_common.Float (conf_sum /. float_of_int (max 1 n)) );
        ])
    per_class;
  let acc = float_of_int !correct /. float_of_int (max 1 !total) in
  let r2_acc = float_of_int !r2_correct /. float_of_int (max 1 !total) in
  let overfit = float_of_int !r2_overfit /. float_of_int (max 1 !total) in
  Format.fprintf ppf
    "  overall: penalized %.1f%%, r2-only %.1f%% (overfits upward on \
     %.1f%% of curves)@."
    (100. *. acc) (100. *. r2_acc) (100. *. overfit);
  Exp_common.emit_row ~experiment:"fit"
    [
      ("class", Exp_common.String "overall");
      ("curves", Exp_common.Int !total);
      ("penalized_accuracy", Exp_common.Float acc);
      ("r2_accuracy", Exp_common.Float r2_acc);
      ("r2_overfit_rate", Exp_common.Float overfit);
      ("bootstrap", Exp_common.Int bootstrap);
      ("points_per_curve", Exp_common.Int (List.length sizes));
    ];
  selection_cost ~quick ppf
