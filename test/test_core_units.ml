(* Unit tests of the core support modules: profile store, metrics
   formulas, cost model, and the empirical cost-function fitting. *)

module Profile = Aprof_core.Profile
module Metrics = Aprof_core.Metrics
module Basis = Aprof_analysis.Fit_basis
module Solve = Aprof_analysis.Fit_solve
module Select = Aprof_analysis.Fit_select
module Cost_model = Aprof_core.Cost_model
module Event = Aprof_trace.Event

(* --- profile store ---------------------------------------------------- *)

let test_profile_points () =
  let p = Profile.create () in
  Profile.record_activation p ~tid:0 ~routine:1 ~rms:5 ~drms:10 ~cost:100;
  Profile.record_activation p ~tid:0 ~routine:1 ~rms:5 ~drms:10 ~cost:80;
  Profile.record_activation p ~tid:0 ~routine:1 ~rms:5 ~drms:20 ~cost:300;
  let d = Option.get (Profile.data p { Profile.tid = 0; routine = 1 }) in
  Alcotest.(check int) "activations" 3 d.Profile.activations;
  Alcotest.(check int) "two drms points" 2 (List.length d.Profile.drms_points);
  Alcotest.(check int) "one rms point" 1 (List.length d.Profile.rms_points);
  (match d.Profile.drms_points with
  | [ p10; p20 ] ->
    Alcotest.(check int) "sorted by input" 10 p10.Profile.input;
    Alcotest.(check int) "worst-case cost" 100 p10.Profile.max_cost;
    Alcotest.(check int) "min cost" 80 p10.Profile.min_cost;
    Alcotest.(check int) "calls" 2 p10.Profile.calls;
    Alcotest.(check int) "second point" 300 p20.Profile.max_cost
  | _ -> Alcotest.fail "point structure");
  Alcotest.(check (float 1e-9)) "sum drms" 40. d.Profile.sum_drms

let test_profile_merge_threads () =
  let p = Profile.create () in
  Profile.record_activation p ~tid:0 ~routine:1 ~rms:5 ~drms:10 ~cost:100;
  Profile.record_activation p ~tid:1 ~routine:1 ~rms:5 ~drms:10 ~cost:200;
  Profile.record_activation p ~tid:1 ~routine:2 ~rms:1 ~drms:1 ~cost:5;
  let merged = Profile.merge_threads p in
  Alcotest.(check int) "two routines" 2 (List.length merged);
  let d1 = List.assoc 1 merged in
  Alcotest.(check int) "merged activations" 2 d1.Profile.activations;
  (match d1.Profile.drms_points with
  | [ pt ] ->
    Alcotest.(check int) "max across threads" 200 pt.Profile.max_cost;
    Alcotest.(check int) "calls summed" 2 pt.Profile.calls
  | _ -> Alcotest.fail "merge should combine equal inputs")

(* --- metrics ----------------------------------------------------------- *)

let data_with ~drms_inputs ~rms_inputs ~ops =
  let p = Profile.create () in
  List.iter2
    (fun d r -> Profile.record_activation p ~tid:0 ~routine:0 ~rms:r ~drms:d ~cost:1)
    drms_inputs rms_inputs;
  let plain, thread, external_ = ops in
  Profile.record_ops p ~tid:0 ~routine:0 ~plain ~induced_thread:thread
    ~induced_external:external_;
  (p, Option.get (Profile.data p { Profile.tid = 0; routine = 0 }))

let test_richness () =
  let _, d =
    data_with ~drms_inputs:[ 1; 2; 3; 4 ] ~rms_inputs:[ 1; 1; 2; 2 ]
      ~ops:(0, 0, 0)
  in
  (* |drms| = 4, |rms| = 2 -> (4-2)/2 = 1 *)
  Alcotest.(check (float 1e-9)) "richness" 1. (Metrics.profile_richness d)

let test_input_volume () =
  let p, d =
    data_with ~drms_inputs:[ 10; 10 ] ~rms_inputs:[ 5; 5 ] ~ops:(0, 0, 0)
  in
  Alcotest.(check (float 1e-9)) "routine volume" 0.5
    (Metrics.routine_input_volume d);
  Alcotest.(check (float 1e-9)) "whole-profile volume" 0.5
    (Metrics.dynamic_input_volume p)

let test_input_sources () =
  let _, d =
    data_with ~drms_inputs:[ 1 ] ~rms_inputs:[ 1 ] ~ops:(2, 6, 2)
  in
  Alcotest.(check (float 1e-9)) "thread input" 0.6 (Metrics.thread_input d);
  Alcotest.(check (float 1e-9)) "external input" 0.2 (Metrics.external_input d);
  match Metrics.induced_breakdown d with
  | Some (t, e) ->
    Alcotest.(check (float 1e-9)) "breakdown thread" 0.75 t;
    Alcotest.(check (float 1e-9)) "breakdown external" 0.25 e
  | None -> Alcotest.fail "expected breakdown"

let test_curves_shape () =
  let p, _ =
    data_with ~drms_inputs:[ 1; 2 ] ~rms_inputs:[ 1; 1 ] ~ops:(1, 1, 0)
  in
  let curve = Metrics.richness_curve p in
  Alcotest.(check int) "standard fractions" 9 (List.length curve);
  (* Tail curves are non-increasing in x. *)
  let ys = List.map snd curve in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b && non_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "non-increasing" true (non_increasing ys)

(* --- cost model -------------------------------------------------------- *)

let test_cost_increments () =
  let module B = Event.Batch in
  Alcotest.(check int) "block" 7
    (Cost_model.cost_increment ~tag:B.tag_block ~arg:7);
  Alcotest.(check int) "read" 1
    (Cost_model.cost_increment ~tag:B.tag_read ~arg:0);
  Alcotest.(check int) "call" 1
    (Cost_model.cost_increment ~tag:B.tag_call ~arg:0);
  Alcotest.(check int) "return free" 0
    (Cost_model.cost_increment ~tag:B.tag_return ~arg:0)

let test_cost_counter () =
  let module B = Event.Batch in
  let c = Cost_model.Counter.create () in
  Cost_model.Counter.on_raw c ~tag:B.tag_block ~tid:0 ~arg:5;
  Cost_model.Counter.on_raw c ~tag:B.tag_read ~tid:1 ~arg:0;
  Cost_model.Counter.on_raw c ~tag:B.tag_write ~tid:0 ~arg:0;
  Alcotest.(check int) "thread 0" 6 (Cost_model.Counter.cost c 0);
  Alcotest.(check int) "thread 1" 1 (Cost_model.Counter.cost c 1);
  Alcotest.(check int) "unknown thread" 0 (Cost_model.Counter.cost c 9);
  Alcotest.(check int) "total" 7 (Cost_model.Counter.total c)

let test_simulated_time () =
  let rng = Aprof_util.Rng.create 1 in
  let t = Cost_model.simulated_time_ns rng ~ns_per_block:2. ~jitter:0.1 1000 in
  Alcotest.(check bool) "positive and near 2000" true (t > 200. && t < 20000.)

(* --- fit ---------------------------------------------------------------- *)

(* [a + b * g(n)]: the class's intercept and leading term alone. *)
let planted cls ~a ~b ~noise ~seed ns =
  let last = Basis.param_count cls - 1 in
  let coefs =
    Array.init (last + 1) (fun i -> if i = 0 then a else if i = last then b else 0.)
  in
  let rng = Aprof_util.Rng.create seed in
  List.map
    (fun n ->
      let y = Basis.eval cls ~coefs (float_of_int n) in
      (n, y *. Aprof_util.Rng.gaussian rng ~mu:1.0 ~sigma:noise))
    ns

let sizes = [ 10; 20; 40; 80; 160; 320; 640 ]

let test_fit_recovers_planted () =
  List.iter
    (fun cls ->
      let points = planted cls ~a:50. ~b:3. ~noise:0.01 ~seed:5 sizes in
      match Select.select ~bootstrap:0 points with
      | Some sel ->
        Alcotest.(check string)
          ("recovers " ^ Basis.name cls)
          (Basis.name cls)
          (Basis.name sel.Select.best.Solve.cls)
      | None -> Alcotest.fail "no fit")
    [ Basis.Linear; Basis.Linearithmic; Basis.Quadratic; Basis.Cubic ]

let test_fit_constant () =
  let points = List.map (fun n -> (n, 42.)) sizes in
  match Select.select ~bootstrap:0 points with
  | Some sel ->
    Alcotest.(check string) "constant" "O(1)"
      (Basis.name sel.Select.best.Solve.cls);
    Alcotest.(check (float 1e-6)) "intercept" 42.
      sel.Select.best.Solve.coefs.(0)
  | None -> Alcotest.fail "no fit"

let test_fit_too_few_points () =
  Alcotest.(check bool) "fewer than 3 distinct inputs" true
    (Select.select [ (1, 1.); (1, 2.); (2, 3.) ] = None)

let test_power_law () =
  let points = List.map (fun n -> (n, 2. *. (float_of_int n ** 1.5))) sizes in
  match Solve.power_law points with
  | Some (c, k, r2) ->
    Alcotest.(check (float 0.01)) "coefficient" 2. c;
    Alcotest.(check (float 0.01)) "exponent" 1.5 k;
    Alcotest.(check bool) "r2" true (r2 > 0.999)
  | None -> Alcotest.fail "no power law"

(* A zero-cost activation used to put -inf into the log-log regression
   and poison every coefficient with NaN; such points are now dropped
   like non-positive inputs. *)
let test_power_law_zero_cost () =
  let points = List.map (fun n -> (n, 2. *. (float_of_int n ** 1.5))) sizes in
  (match Solve.power_law ((5, 0.) :: (7, nan) :: points) with
  | Some (c, k, r2) ->
    Alcotest.(check bool) "coefficient finite" true (Float.is_finite c);
    Alcotest.(check bool) "exponent finite" true (Float.is_finite k);
    Alcotest.(check bool) "r2 finite" true (Float.is_finite r2);
    Alcotest.(check (float 0.01)) "coefficient unchanged" 2. c;
    Alcotest.(check (float 0.01)) "exponent unchanged" 1.5 k
  | None -> Alcotest.fail "clean subset should still fit");
  (* All points degenerate: no fit rather than NaN. *)
  Alcotest.(check bool) "all-zero costs" true
    (Solve.power_law (List.map (fun n -> (n, 0.)) sizes) = None)

let test_points_of_profile_cost_kinds () =
  let p = Profile.create () in
  Profile.record_activation p ~tid:0 ~routine:1 ~rms:3 ~drms:10 ~cost:100;
  Profile.record_activation p ~tid:0 ~routine:1 ~rms:3 ~drms:10 ~cost:50;
  Profile.record_activation p ~tid:0 ~routine:1 ~rms:4 ~drms:20 ~cost:300;
  let d = Option.get (Profile.data p { Profile.tid = 0; routine = 1 }) in
  Alcotest.(check (list (pair int (float 1e-9))))
    "drms worst-case"
    [ (10, 100.); (20, 300.) ]
    (Profile.cost_points ~metric:`Drms ~cost:`Max d);
  Alcotest.(check (list (pair int (float 1e-9))))
    "drms mean"
    [ (10, 75.); (20, 300.) ]
    (Profile.cost_points ~metric:`Drms ~cost:`Mean d);
  Alcotest.(check (list (pair int (float 1e-9))))
    "rms worst-case"
    [ (3, 100.); (4, 300.) ]
    (Profile.cost_points ~metric:`Rms ~cost:`Max d);
  Alcotest.(check (list (pair int (float 1e-9))))
    "rms mean"
    [ (3, 75.); (4, 300.) ]
    (Profile.cost_points ~metric:`Rms ~cost:`Mean d)

let fit_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"fit r_squared in [0,1]" ~count:100
       QCheck2.Gen.(
         list_size (int_range 4 20) (pair (int_range 1 1000) (float_range 1. 1e6)))
       (fun points ->
         match Select.select ~bootstrap:0 points with
         | None -> true
         | Some sel ->
           List.for_all
             (fun ((f : Solve.fit), _) -> f.Solve.r2 >= 0. && f.Solve.r2 <= 1.)
             sel.Select.ranking))

let suite =
  [
    Alcotest.test_case "profile points" `Quick test_profile_points;
    Alcotest.test_case "profile merge" `Quick test_profile_merge_threads;
    Alcotest.test_case "richness" `Quick test_richness;
    Alcotest.test_case "input volume" `Quick test_input_volume;
    Alcotest.test_case "input sources" `Quick test_input_sources;
    Alcotest.test_case "curve shape" `Quick test_curves_shape;
    Alcotest.test_case "cost increments" `Quick test_cost_increments;
    Alcotest.test_case "cost counter" `Quick test_cost_counter;
    Alcotest.test_case "simulated time" `Quick test_simulated_time;
    Alcotest.test_case "fit recovers planted models" `Quick
      test_fit_recovers_planted;
    Alcotest.test_case "fit constant" `Quick test_fit_constant;
    Alcotest.test_case "fit needs 3 points" `Quick test_fit_too_few_points;
    Alcotest.test_case "power law" `Quick test_power_law;
    Alcotest.test_case "power law ignores zero-cost points" `Quick
      test_power_law_zero_cost;
    Alcotest.test_case "points_of_profile cost kinds" `Quick
      test_points_of_profile_cost_kinds;
    fit_prop;
  ]
