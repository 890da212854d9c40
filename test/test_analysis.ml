(* The layered analysis stack: penalized model selection, versioned
   model stores, and the cost-diff regression watch. *)

module Basis = Aprof_analysis.Fit_basis
module Solve = Aprof_analysis.Fit_solve
module Select = Aprof_analysis.Fit_select
module Store = Aprof_analysis.Model_store
module Diff = Aprof_analysis.Cost_diff
module Run_meta = Aprof_core.Run_meta
module Profile = Aprof_core.Profile
module Profile_io = Aprof_core.Profile_io

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- synthetic battery -------------------------------------------------- *)

let battery_classes : (Basis.cls * float array) list =
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

let battery_sizes =
  let rec go acc n =
    if n > 20000. then List.rev acc else go (int_of_float n :: acc) (n *. 1.68)
  in
  go [] 8.

let plant rng cls coefs ~noise =
  List.map
    (fun n ->
      let y = Basis.eval cls ~coefs (float_of_int n) in
      let f = Float.max 0.05 (Aprof_util.Rng.gaussian rng ~mu:1.0 ~sigma:noise) in
      (n, y *. f))
    battery_sizes

(* The raw-r^2 pick [bench -e fit] measures against, with its tie rule:
   the top of the admissible fits by descending r^2, exact ties to the
   simpler class. *)
let r2_top (sel : Select.selection) =
  List.map fst sel.Select.ranking
  |> List.sort (fun (f1 : Solve.fit) (f2 : Solve.fit) ->
         match compare f2.Solve.r2 f1.Solve.r2 with
         | 0 -> compare (Basis.order f1.Solve.cls) (Basis.order f2.Solve.cls)
         | c -> c)
  |> List.hd

(* The tentpole property: on noisy curves of known class, the penalized
   selection recovers the truth at least 90% of the time, while the
   legacy raw-r^2 ranking — monotone in model size under the nested
   designs — overfits upward on a substantial fraction.  Deterministic:
   fixed seeds, fixed sizes. *)
let test_battery_recovery () =
  let total = ref 0 and ok = ref 0 and r2_ok = ref 0 and overfit = ref 0 in
  List.iter
    (fun (cls, coefs) ->
      List.iter
        (fun noise ->
          for seed = 1 to 8 do
            let rng =
              Aprof_util.Rng.create
                ((seed * 7919) + int_of_float (noise *. 1000.))
            in
            let points = plant rng cls coefs ~noise in
            match Select.select ~bootstrap:0 ~seed points with
            | None -> Alcotest.failf "no selection for %s" (Basis.name cls)
            | Some sel ->
              incr total;
              if sel.Select.best.Solve.cls = cls then incr ok;
              let top = r2_top sel in
              if top.Solve.cls = cls then incr r2_ok
              else if Basis.order top.Solve.cls > Basis.order cls then
                incr overfit
          done)
        [ 0.05; 0.12 ])
    battery_classes;
  let frac a = float_of_int !a /. float_of_int !total in
  Alcotest.(check bool)
    (Printf.sprintf "penalized recovery >= 90%% (got %.1f%%)" (100. *. frac ok))
    true
    (frac ok >= 0.9);
  Alcotest.(check bool)
    (Printf.sprintf "r2-only demonstrably worse (got %.1f%%)"
       (100. *. frac r2_ok))
    true
    (frac r2_ok < frac ok -. 0.15);
  Alcotest.(check bool)
    (Printf.sprintf "r2-only overfits upward (got %.1f%%)"
       (100. *. frac overfit))
    true
    (frac overfit >= 0.2)

let test_noiseless_ties_to_simplest () =
  let points = List.map (fun n -> (n, 40. +. (3. *. float_of_int n))) battery_sizes in
  match Select.select ~bootstrap:0 points with
  | None -> Alcotest.fail "no selection"
  | Some sel ->
    Alcotest.(check string) "exact linear data selects O(n)" "O(n)"
      (Basis.name sel.Select.best.Solve.cls)

let test_plateau_recovery () =
  let coefs = [| 30.; 4.; 900. |] in
  let points =
    List.map (fun n -> (n, Basis.eval Basis.Plateau ~coefs (float_of_int n)))
      battery_sizes
  in
  match Select.select ~bootstrap:0 points with
  | None -> Alcotest.fail "no selection"
  | Some sel ->
    Alcotest.(check string) "plateau class" "plateau"
      (Basis.name sel.Select.best.Solve.cls);
    let n0 = sel.Select.best.Solve.coefs.(2) in
    Alcotest.(check bool)
      (Printf.sprintf "breakpoint near 900 (got %.0f)" n0)
      true
      (n0 >= 300. && n0 <= 2600.)

let test_select_deterministic () =
  let rng = Aprof_util.Rng.create 3 in
  let points = plant rng Basis.Quadratic [| 50.; 5.; 0.08 |] ~noise:0.1 in
  match (Select.select ~seed:9 points, Select.select ~seed:9 points) with
  | Some a, Some b ->
    Alcotest.(check string) "same class"
      (Basis.name a.Select.best.Solve.cls)
      (Basis.name b.Select.best.Solve.cls);
    Alcotest.(check (float 0.)) "same confidence" a.Select.confidence
      b.Select.confidence;
    Alcotest.(check bool) "confidence in [0,1]" true
      (a.Select.confidence >= 0. && a.Select.confidence <= 1.)
  | _ -> Alcotest.fail "no selection"

let test_select_degenerate () =
  Alcotest.(check bool) "empty" true (Select.select [] = None);
  Alcotest.(check bool) "two distinct inputs" true
    (Select.select [ (1, 2.); (1, 3.); (2, 4.) ] = None);
  (* Non-finite costs are dropped, not propagated. *)
  match
    Select.select ~bootstrap:0
      [ (1, 1.); (2, 2.); (4, 4.); (8, 8.); (16, nan); (32, infinity) ]
  with
  | None -> Alcotest.fail "finite subset should still fit"
  | Some sel ->
    List.iter
      (fun (f, score) ->
        Alcotest.(check bool) "finite score" true (Float.is_finite score);
        Array.iter
          (fun c -> Alcotest.(check bool) "finite coef" true (Float.is_finite c))
          f.Solve.coefs)
      sel.Select.ranking

let test_exponent_interval () =
  let rng = Aprof_util.Rng.create 11 in
  let points =
    List.map
      (fun n ->
        let y = 2. *. (float_of_int n ** 1.5) in
        (n, y *. Aprof_util.Rng.gaussian rng ~mu:1.0 ~sigma:0.05))
      battery_sizes
  in
  match Select.select ~seed:4 points with
  | Some { Select.exponent = Some (k, lo, hi); _ } ->
    Alcotest.(check bool)
      (Printf.sprintf "interval brackets estimate (%.2f in %.2f..%.2f)" k lo hi)
      true
      (lo <= k && k <= hi);
    Alcotest.(check (float 0.15)) "exponent near 1.5" 1.5 k
  | _ -> Alcotest.fail "expected an exponent interval"

(* --- plateau screen = full breakpoint scan ------------------------------ *)

(* [Fit_solve] solves only the breakpoints its closed-form screen cannot
   rule out; {!Plateau_ref} solves every one.  The two must agree to the
   bit on coefficients, RSS and r^2 — under unit weights and under the
   relative-error weights selection uses. *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let show_fit (f : Solve.fit) =
  Printf.sprintf "coefs [%s] rss %h r2 %h"
    (String.concat "; "
       (Array.to_list (Array.map (Printf.sprintf "%h") f.Solve.coefs)))
    f.Solve.rss f.Solve.r2

let check_plateau_same ~what ?weights points =
  match
    (Solve.fit_cls ?weights Basis.Plateau points, Plateau_ref.fit ?weights points)
  with
  | None, None -> ()
  | Some g, Some w ->
    let same =
      Array.length g.Solve.coefs = Array.length w.Solve.coefs
      && Array.for_all2 same_bits g.Solve.coefs w.Solve.coefs
      && same_bits g.Solve.rss w.Solve.rss
      && same_bits g.Solve.r2 w.Solve.r2
    in
    if not same then
      Alcotest.failf "%s: screened %s, full scan %s" what (show_fit g)
        (show_fit w)
  | g, _ ->
    Alcotest.failf "%s: screened fit %s, full scan %s" what
      (if g = None then "absent" else "present")
      (if g = None then "present" else "absent")

let check_both_weightings ~what points =
  check_plateau_same ~what:(what ^ " (unit weights)") points;
  check_plateau_same
    ~what:(what ^ " (relative weights)")
    ~weights:(Select.relative_weights points)
    points

let resample rng points =
  let arr = Array.of_list points in
  List.init (Array.length arr) (fun _ ->
      arr.(Aprof_util.Rng.int rng (Array.length arr)))

(* The points and bootstrap resamples of every registry workload's
   merged drms and rms profiles, under worst-case and mean costs. *)
let test_plateau_screen_workloads () =
  let rich = ref 0 in
  List.iter
    (fun spec ->
      let scale =
        match spec.Aprof_workloads.Workload.name with
        | "vips" -> 30
        | "dedup" -> 60
        | _ -> 80
      in
      let result =
        Aprof_workloads.Workload.run_spec spec ~threads:3 ~scale ~seed:13
      in
      let p = Aprof_core.Drms_profiler.create () in
      Aprof_trace.Trace.replay result.Aprof_vm.Interp.trace (Aprof_core.Drms_profiler.on_batch p);
      let rng = Aprof_util.Rng.create 17 in
      List.iter
        (fun (rid, d) ->
          List.iter
            (fun (metric, cost) ->
              let points = Profile.cost_points ~metric ~cost d in
              let what i =
                Printf.sprintf "%s routine %d %s %s sample %d"
                  spec.Aprof_workloads.Workload.name rid
                  (Profile_io.metric_name metric)
                  (match cost with `Max -> "max" | `Mean -> "mean")
                  i
              in
              if Solve.distinct_inputs points >= 3 then begin
                incr rich;
                check_both_weightings ~what:(what 0) points;
                for i = 1 to 4 do
                  check_both_weightings ~what:(what i) (resample rng points)
                done
              end)
            [ (`Drms, `Max); (`Drms, `Mean); (`Rms, `Max); (`Rms, `Mean) ])
        (Profile.merge_threads (Aprof_core.Drms_profiler.finish p)))
    Aprof_workloads.Registry.all;
  Alcotest.(check bool)
    (Printf.sprintf "compared many workload curves (%d)" !rich)
    true (!rich >= 100)

let grid ~lo ~step n = List.init n (fun i -> lo + (i * step))

(* Every breakpoint ties on a constant curve, so the screen must keep
   them all; the full scan's winner is decided by rounding alone. *)
let test_plateau_screen_constant () =
  List.iter
    (fun c ->
      List.iter
        (fun (name, inputs) ->
          let points = List.map (fun n -> (n, c)) inputs in
          check_both_weightings
            ~what:(Printf.sprintf "constant %g on %s" c name)
            points)
        [
          ("battery sizes", battery_sizes);
          ("1..40", grid ~lo:1 ~step:1 40);
          ("0..", grid ~lo:0 ~step:7 25);
          ("large inputs", grid ~lo:1_000_000 ~step:3 30);
          ("duplicated", List.concat_map (fun n -> [ n; n; n ]) battery_sizes);
        ])
    [ 0.; 1.; 0.1; 40.; 1e-7; 123456.789; 1e12 ]

let plateau_curve ~coefs inputs =
  List.map
    (fun n -> (n, Basis.eval Basis.Plateau ~coefs (float_of_int n)))
    inputs

(* Exact plateaus (breakpoint on an input, between inputs, past the
   last) and noisy ones, on single and duplicated inputs. *)
let test_plateau_screen_planted () =
  let rng = Aprof_util.Rng.create 29 in
  let factor ~noise =
    Float.max 0.05 (Aprof_util.Rng.gaussian rng ~mu:1.0 ~sigma:noise)
  in
  let noisy ~noise points =
    List.map (fun (n, y) -> (n, y *. factor ~noise)) points
  in
  let shapes =
    [
      ("battery sizes", battery_sizes);
      ("1..60", grid ~lo:1 ~step:1 60);
      ("10..", grid ~lo:10 ~step:37 80);
      ( "duplicated",
        List.concat_map (fun n -> [ n; n ]) (grid ~lo:4 ~step:5 40) );
    ]
  in
  List.iter
    (fun (name, inputs) ->
      let hi = List.fold_left max 0 inputs in
      List.iter
        (fun b ->
          List.iter
            (fun (c0, c1) ->
              let exact =
                plateau_curve ~coefs:[| c0; c1; float_of_int b |] inputs
              in
              let what kind =
                Printf.sprintf "%s plateau %g + %g min(n, %d) on %s" kind c0
                  c1 b name
              in
              check_both_weightings ~what:(what "exact") exact;
              List.iter
                (fun noise ->
                  check_both_weightings
                    ~what:(what (Printf.sprintf "noise %g" noise))
                    (noisy ~noise exact))
                [ 0.01; 0.05; 0.12 ])
            [ (30., 4.); (0., 1.); (1e6, 0.5); (5., 1e4) ])
        [ 3; List.nth inputs 2; hi / 3; (hi / 2) + 1; hi - 1; hi; 2 * hi ])
    shapes;
  (* A large offset under a small plateau or small noise: the RSS
     differences between breakpoints are comparable to the solve's
     rounding error, so the screen must keep every candidate the
     rounding could decide between. *)
  List.iter
    (fun (name, inputs) ->
      List.iter
        (fun offset ->
          List.iter
            (fun wiggle ->
              let points =
                List.map
                  (fun n ->
                    let bump = wiggle *. Float.min (float_of_int n) 50. in
                    (n, offset +. bump +. (wiggle *. Aprof_util.Rng.float rng 1.)))
                  inputs
              in
              check_both_weightings
                ~what:
                  (Printf.sprintf "offset %g, wiggle %g on %s" offset wiggle
                     name)
                points)
            [ 1e-6; 1e-3; 1. ])
        [ 1e6; 1e9; 1e12 ])
    shapes;
  (* Inputs repeated a random number of times with independent noise,
     under random shapes from the whole family. *)
  for trial = 1 to 200 do
    let d = 3 + Aprof_util.Rng.int rng 40 in
    let inputs =
      List.concat_map
        (fun i ->
          List.init (1 + Aprof_util.Rng.int rng 3) (fun _ -> (i * 3) + 1))
        (List.init d Fun.id)
    in
    let cls, coefs =
      List.nth battery_classes
        (Aprof_util.Rng.int rng (List.length battery_classes))
    in
    let points =
      List.map
        (fun n ->
          let y = Basis.eval cls ~coefs (float_of_int n) in
          (n, y *. factor ~noise:0.1))
        inputs
    in
    check_both_weightings
      ~what:(Printf.sprintf "trial %d (%s, %d inputs)" trial (Basis.name cls) d)
      points
  done

(* The whole [bench -e fit] battery — every class, both noise levels,
   30 seeds, bootstrap 60 — through [Select.select]: class, bootstrap
   confidence and exponent interval per curve, pinned against
   test/golden/fit_battery.txt, which the full breakpoint scan wrote.
   Regenerate only for an intended change to selection:
     APROF_WRITE_GOLDEN=$PWD/test/golden \
       dune exec test/test_main.exe -- test analysis *)
let battery_selections () =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (cls, coefs) ->
      List.iter
        (fun noise ->
          for seed = 1 to 30 do
            let rng =
              Aprof_util.Rng.create
                ((seed * 7919) + int_of_float (noise *. 1000.))
            in
            let points = plant rng cls coefs ~noise in
            Printf.bprintf buf "%s %g %d: " (Basis.token cls) noise seed;
            match Select.select ~bootstrap:60 ~seed points with
            | None -> Buffer.add_string buf "none\n"
            | Some sel ->
              Printf.bprintf buf "%s %.17g"
                (Basis.token sel.Select.best.Solve.cls)
                sel.Select.confidence;
              (match sel.Select.exponent with
              | Some (k, lo, hi) ->
                Printf.bprintf buf " %.17g %.17g %.17g" k lo hi
              | None -> Buffer.add_string buf " -");
              Buffer.add_char buf '\n'
          done)
        [ 0.05; 0.12 ])
    battery_classes;
  Buffer.contents buf

let test_battery_selections () =
  Test_golden.check_golden "fit_battery.txt" (battery_selections ())

(* --- model store -------------------------------------------------------- *)

let meta ?(seed = 1) () =
  {
    Run_meta.workload = "synthetic";
    seed;
    scale = 100;
    threads = 2;
    scheduler = "round-robin(64)";
  }

let entry ?(routine = "r") ?(metric = `Drms) ?(cls = Basis.Linear)
    ?(coefs = [| 5.; 3. |]) ?(confidence = 0.95) ?(exponent = Some (1.0, 0.9, 1.1))
    () =
  {
    Store.routine;
    metric;
    cls;
    coefs;
    n_points = 12;
    r2 = 0.99;
    confidence;
    exponent;
  }

let check_entry_equal msg (a : Store.entry) (b : Store.entry) =
  Alcotest.(check string) (msg ^ ": routine") a.Store.routine b.Store.routine;
  Alcotest.(check string)
    (msg ^ ": metric")
    (Profile_io.metric_name a.Store.metric)
    (Profile_io.metric_name b.Store.metric);
  Alcotest.(check string)
    (msg ^ ": class")
    (Basis.name a.Store.cls) (Basis.name b.Store.cls);
  Alcotest.(check int) (msg ^ ": n_points") a.Store.n_points b.Store.n_points;
  Alcotest.(check (float 0.)) (msg ^ ": r2") a.Store.r2 b.Store.r2;
  Alcotest.(check (float 0.))
    (msg ^ ": confidence")
    a.Store.confidence b.Store.confidence;
  Alcotest.(check int)
    (msg ^ ": coef count")
    (Array.length a.Store.coefs)
    (Array.length b.Store.coefs);
  Array.iteri
    (fun i c -> Alcotest.(check (float 0.)) (msg ^ ": coef") c b.Store.coefs.(i))
    a.Store.coefs;
  match (a.Store.exponent, b.Store.exponent) with
  | None, None -> ()
  | Some (k, lo, hi), Some (k', lo', hi') ->
    Alcotest.(check (float 0.)) (msg ^ ": k") k k';
    Alcotest.(check (float 0.)) (msg ^ ": lo") lo lo';
    Alcotest.(check (float 0.)) (msg ^ ": hi") hi hi'
  | _ -> Alcotest.failf "%s: exponent presence differs" msg

let test_store_roundtrip () =
  let entries =
    [
      entry ~routine:"plain" ();
      entry ~routine:"name, with, commas" ~metric:`Rms ~cls:Basis.Plateau
        ~coefs:[| 1.; 2.; 300. |] ~exponent:None ();
      entry ~routine:"cubic one" ~cls:Basis.Cubic ~coefs:[| 1.; 0.; 0.; 2e-3 |]
        ();
    ]
  in
  let store = Store.create ~meta:(meta ()) entries in
  match Store.of_string (Store.to_string store) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok back ->
    Alcotest.(check int) "entry count" (List.length entries)
      (List.length back.Store.entries);
    List.iter2 (check_entry_equal "entry") store.Store.entries
      back.Store.entries;
    (match back.Store.meta with
    | Some m ->
      Alcotest.(check string) "meta workload" "synthetic" m.Run_meta.workload;
      Alcotest.(check string) "meta scheduler" "round-robin(64)"
        m.Run_meta.scheduler
    | None -> Alcotest.fail "meta lost");
    (* Entries come back sorted and findable. *)
    (match Store.find back ~routine:"name, with, commas" ~metric:`Rms with
    | Some e ->
      Alcotest.(check string) "comma name preserved" "name, with, commas"
        e.Store.routine
    | None -> Alcotest.fail "comma-named routine not found");
    Alcotest.(check (list string)) "routines sorted"
      [ "cubic one"; "name, with, commas"; "plain" ]
      (Store.routines back)

(* A routine name ends each model line, so a line break in it would
   plant model records of its own; the writer refuses it. *)
let test_store_forged_name_refused () =
  List.iter
    (fun routine ->
      match Store.to_string (Store.create [ entry ~routine () ]) with
      | dump -> Alcotest.failf "wrote %S as %S" routine dump
      | exception Invalid_argument _ -> ())
    [ "r\nmodel,drms,linear,3,1,1,1,1,1,2,1,2,forged"; "r\rforged" ];
  (* So is any model or metadata the reader could not return: a present
     exponent written as nan would read back as none, a coefficient
     count that contradicts the class would be refused, and a comma in
     the workload would shift the meta fields. *)
  List.iter
    (fun (what, store) ->
      match Store.to_string store with
      | dump -> Alcotest.failf "wrote %s as %S" what dump
      | exception Invalid_argument _ -> ())
    [
      ( "a nan exponent",
        Store.create [ entry ~exponent:(Some (nan, 1., 2.)) () ] );
      ( "three linear coefficients",
        Store.create [ entry ~coefs:[| 1.; 2.; 3. |] () ] );
      ( "a comma in the workload",
        Store.create ~meta:{ (meta ()) with Run_meta.workload = "a,b" } [] );
      ( "a line break in the scheduler",
        Store.create ~meta:{ (meta ()) with Run_meta.scheduler = "s\nx" } [] );
    ]

let test_store_versioning () =
  let dump = Store.to_string (Store.create [ entry () ]) in
  (* A future version is refused, not misparsed. *)
  let future =
    "costmodel,99\n"
    ^ String.concat "\n" (List.tl (String.split_on_char '\n' dump))
  in
  (match Store.of_string future with
  | Error e ->
    Alcotest.(check bool) "error names the version" true
      (contains_sub e "unsupported")
  | Ok _ -> Alcotest.fail "future store version accepted");
  (* A file without the header is not a store. *)
  (match Store.of_string "model,drms,linear,3,1,1,1,1,1,2,1,2,r\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "headerless store accepted");
  (* Unknown record kinds and malformed models are rejected with a line. *)
  List.iter
    (fun s ->
      match Store.of_string ("costmodel,1\n" ^ s) with
      | Error e ->
        Alcotest.(check bool) "mentions line" true
          (contains_sub e "line")
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [
      "bogus,1\n";
      "model,drms,linear,3\n";
      "model,drms,nosuch,3,1,1,1,1,1,2,1,2,r\n";
      "model,drms,linear,3,1,1,1,1,1,5,1,2,r\n";
      (* Coefficient counts that disagree with the class. *)
      "model,drms,linear,12,0.99,0.92,2,1.8,2.2,0,hot_routine\n";
      "model,drms,plateau,12,0.99,0.92,1,0.9,1.1,1,5,hot_routine\n";
      (* Nothing is trimmed: a blank in a number field or before a
         record's kind is an error, and so is a line of blanks. *)
      "model,drms,linear,3, 1,1,1,1,1,2,1,2,r\n";
      " model,drms,linear,3,1,1,1,1,1,2,1,2,r\n";
      "  \n";
      "costmodel,1 \n";
      "costmodel\n";
      (* Only a final CR is dropped: no writer writes another. *)
      "meta,a\rb,1,1,1,s\n";
    ]

(* --- cost diff ---------------------------------------------------------- *)

let sizes8 = [ 10; 20; 40; 80; 160; 320; 640; 1280 ]

let profile_with cost_fn =
  let p = Profile.create () in
  List.iter
    (fun n ->
      Profile.record_activation p ~tid:0 ~routine:1 ~rms:n ~drms:n
        ~cost:(cost_fn n))
    sizes8;
  p

let analyze_with ~seed p =
  Store.analyze ~bootstrap:40 ~seed
    ~routine_name:(fun i -> Printf.sprintf "r%d" i)
    p

let test_planted_regression () =
  (* A routine that was linear in its drms and turned quadratic: the
     regression watch's reason to exist.  Real profiles, real analyze. *)
  let old_profile = profile_with (fun n -> 50 + (3 * n)) in
  let new_profile = profile_with (fun n -> 50 + (n * n / 10)) in
  let old_store =
    Store.create ~meta:(meta ~seed:1 ()) (analyze_with ~seed:1 old_profile)
  in
  let new_store =
    Store.create ~meta:(meta ~seed:2 ()) (analyze_with ~seed:2 new_profile)
  in
  match Diff.diff old_store new_store with
  | Error e -> Alcotest.failf "diff refused: %s" e
  | Ok report ->
    Alcotest.(check bool) "regression found" true (Diff.has_regression report);
    let class_regressions =
      List.filter
        (fun (f : Diff.finding) ->
          f.Diff.severity = Diff.Regression
          &&
          match f.Diff.change with
          | Diff.Class_change { old_cls; new_cls; _ } ->
            old_cls = Basis.Linear && new_cls = Basis.Quadratic
          | _ -> false)
        report.Diff.findings
    in
    Alcotest.(check bool) "linear -> quadratic class change" true
      (class_regressions <> []);
    List.iter
      (fun (f : Diff.finding) ->
        Alcotest.(check string) "on routine r1" "r1" f.Diff.routine)
      report.Diff.findings

let test_self_diff_clean () =
  let profile = profile_with (fun n -> 50 + (3 * n)) in
  let store =
    Store.create ~meta:(meta ~seed:1 ()) (analyze_with ~seed:1 profile)
  in
  match Diff.diff store store with
  | Error e -> Alcotest.failf "diff refused: %s" e
  | Ok report ->
    Alcotest.(check int) "no findings" 0 (List.length report.Diff.findings);
    Alcotest.(check bool) "clean" false (Diff.has_regression report);
    Alcotest.(check bool) "compared something" true (report.Diff.compared > 0)

(* The acceptance path on a real workload: the same seed produces the
   same profile, hence the same store, hence a clean diff. *)
let test_workload_self_diff_clean () =
  let run () =
    let spec = Option.get (Aprof_workloads.Registry.find "mysqlslap") in
    let result =
      Aprof_workloads.Workload.run_spec spec ~threads:3 ~scale:30 ~seed:42
    in
    let p = Aprof_core.Drms_profiler.create () in
    Aprof_trace.Trace.replay result.Aprof_vm.Interp.trace (Aprof_core.Drms_profiler.on_batch p);
    let profile = Aprof_core.Drms_profiler.finish p in
    let routine_name =
      Aprof_trace.Routine_table.name result.Aprof_vm.Interp.routines
    in
    Store.create
      ~meta:
        {
          Run_meta.workload = "mysqlslap";
          seed = 42;
          scale = 30;
          threads = 3;
          scheduler = "round-robin(64)";
        }
      (Store.analyze ~bootstrap:60 ~seed:42 ~routine_name profile)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "store has models" true (a.Store.entries <> []);
  match Diff.diff a b with
  | Error e -> Alcotest.failf "diff refused: %s" e
  | Ok report ->
    Alcotest.(check int) "same-seed self-diff is clean" 0
      (List.length report.Diff.findings)

let test_confidence_gate () =
  let mk confidence cls =
    Store.create ~meta:(meta ())
      [ entry ~cls ~coefs:(if cls = Basis.Linear then [| 5.; 3. |] else [| 5.; 3.; 2. |]) ~confidence () ]
  in
  (* Below the gate: the change is reported, but as info, and does not
     fail the watch. *)
  (match Diff.diff (mk 0.5 Basis.Linear) (mk 0.9 Basis.Quadratic) with
  | Ok report ->
    Alcotest.(check bool) "not a regression" false (Diff.has_regression report);
    (match report.Diff.findings with
    | [ f ] ->
      Alcotest.(check bool) "severity info" true (f.Diff.severity = Diff.Info)
    | l -> Alcotest.failf "expected one finding, got %d" (List.length l))
  | Error e -> Alcotest.failf "diff refused: %s" e);
  (* At the gate: a real regression. *)
  match Diff.diff (mk 0.9 Basis.Linear) (mk 0.9 Basis.Quadratic) with
  | Ok report ->
    Alcotest.(check bool) "regression" true (Diff.has_regression report)
  | Error e -> Alcotest.failf "diff refused: %s" e

let test_slope_change () =
  let mk b =
    Store.create ~meta:(meta ()) [ entry ~coefs:[| 5.; b |] () ]
  in
  (match Diff.diff (mk 3.) (mk 9.) with
  | Ok report -> (
    match report.Diff.findings with
    | [ { Diff.severity = Diff.Regression; change = Diff.Slope_change s; _ } ] ->
      Alcotest.(check (float 1e-9)) "ratio" 3. s.ratio
    | _ -> Alcotest.fail "expected one slope regression")
  | Error e -> Alcotest.failf "diff refused: %s" e);
  (match Diff.diff (mk 9.) (mk 3.) with
  | Ok report -> (
    match report.Diff.findings with
    | [ { Diff.severity = Diff.Improvement; change = Diff.Slope_change _; _ } ]
      ->
      ()
    | _ -> Alcotest.fail "expected one slope improvement")
  | Error e -> Alcotest.failf "diff refused: %s" e);
  (* Within the gate: silence. *)
  match Diff.diff (mk 3.) (mk 4.) with
  | Ok report -> Alcotest.(check int) "no finding" 0 (List.length report.Diff.findings)
  | Error e -> Alcotest.failf "diff refused: %s" e

let test_divergence_change () =
  let mk drms_cls =
    Store.create ~meta:(meta ())
      [
        entry ~metric:`Drms ~cls:drms_cls
          ~coefs:(if drms_cls = Basis.Constant then [| 5. |] else [| 5.; 3. |])
          ();
        entry ~metric:`Rms ~cls:Basis.Linear ();
      ]
  in
  (* drms saturating under a growing rms is the paper's Fig. 4 shape;
     its appearance is a regression (a bounded working set started being
     re-read), its disappearance an improvement.  The class-change
     finding for drms rides along. *)
  match Diff.diff (mk Basis.Linear) (mk Basis.Constant) with
  | Error e -> Alcotest.failf "diff refused: %s" e
  | Ok report ->
    let div =
      List.filter
        (fun (f : Diff.finding) ->
          match f.Diff.change with
          | Diff.Divergence_change d ->
            Alcotest.(check bool) "now divergent" true d.now_divergent;
            Alcotest.(check bool) "metric-less finding" true (f.Diff.metric = None);
            true
          | _ -> false)
        report.Diff.findings
    in
    Alcotest.(check int) "one divergence finding" 1 (List.length div)

let test_meta_discipline () =
  let s1 = Store.create ~meta:(meta ()) [ entry () ] in
  let s2 =
    Store.create
      ~meta:{ (meta ()) with Run_meta.scale = 999 }
      [ entry () ]
  in
  (match Diff.diff s1 s2 with
  | Error e ->
    Alcotest.(check bool) "names the field" true
      (contains_sub e "scale")
  | Ok _ -> Alcotest.fail "incomparable scales diffed");
  (* Different seeds are comparable by design. *)
  (match
     Diff.diff s1 (Store.create ~meta:(meta ~seed:77 ()) [ entry () ])
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "seed should not block a diff: %s" e);
  (* Missing metadata: refused by default, allowed explicitly. *)
  let bare = Store.create [ entry () ] in
  (match Diff.diff s1 bare with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing meta accepted by default");
  match Diff.diff ~require_meta:false s1 bare with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "require_meta:false still refused: %s" e

let test_only_in_lists () =
  let s_old =
    Store.create ~meta:(meta ()) [ entry ~routine:"gone" (); entry ~routine:"both" () ]
  in
  let s_new =
    Store.create ~meta:(meta ()) [ entry ~routine:"both" (); entry ~routine:"fresh" () ]
  in
  match Diff.diff s_old s_new with
  | Error e -> Alcotest.failf "diff refused: %s" e
  | Ok report ->
    Alcotest.(check (list string)) "only old" [ "gone" ] report.Diff.only_old;
    Alcotest.(check (list string)) "only new" [ "fresh" ] report.Diff.only_new;
    Alcotest.(check int) "compared the shared pair" 1 report.Diff.compared

(* --- run metadata ------------------------------------------------------- *)

(* The meta record of a model store: every field survives, the
   scheduler (last on its line) keeps its commas, a bad seed is
   refused. *)
let test_run_meta_fields () =
  let m =
    {
      Run_meta.workload = "mysqlslap";
      seed = 7;
      scale = 120;
      threads = 4;
      scheduler = "random(8-96)";
    }
  in
  let through m =
    Result.map
      (fun st -> Option.get st.Store.meta)
      (Store.of_string (Store.to_string (Store.create ~meta:m [])))
  in
  (match through m with
  | Ok back ->
    Alcotest.(check string) "workload" m.Run_meta.workload back.Run_meta.workload;
    Alcotest.(check int) "seed" m.Run_meta.seed back.Run_meta.seed;
    Alcotest.(check int) "scale" m.Run_meta.scale back.Run_meta.scale;
    Alcotest.(check int) "threads" m.Run_meta.threads back.Run_meta.threads;
    Alcotest.(check string) "scheduler" m.Run_meta.scheduler
      back.Run_meta.scheduler
  | Error e -> Alcotest.failf "round trip failed: %s" e);
  (* The scheduler field is last on the line: embedded commas survive. *)
  let weird = { m with Run_meta.scheduler = "custom,with,commas" } in
  (match through weird with
  | Ok back ->
    Alcotest.(check string) "comma scheduler" "custom,with,commas"
      back.Run_meta.scheduler
  | Error e -> Alcotest.failf "comma round trip failed: %s" e);
  match Store.of_string "costmodel,1\nmeta,w,notanint,1,1,s\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad seed accepted"

let suite =
  [
    Alcotest.test_case "battery: penalized beats r2" `Quick
      test_battery_recovery;
    Alcotest.test_case "noiseless ties to simplest" `Quick
      test_noiseless_ties_to_simplest;
    Alcotest.test_case "plateau recovery" `Quick test_plateau_recovery;
    Alcotest.test_case "selection deterministic" `Quick test_select_deterministic;
    Alcotest.test_case "degenerate selection inputs" `Quick
      test_select_degenerate;
    Alcotest.test_case "exponent interval" `Quick test_exponent_interval;
    Alcotest.test_case "plateau screen: registry workloads" `Quick
      test_plateau_screen_workloads;
    Alcotest.test_case "plateau screen: constant curves" `Quick
      test_plateau_screen_constant;
    Alcotest.test_case "plateau screen: planted curves" `Quick
      test_plateau_screen_planted;
    Alcotest.test_case "battery selections pinned" `Quick
      test_battery_selections;
    Alcotest.test_case "store roundtrip" `Quick test_store_roundtrip;
    Alcotest.test_case "store versioning" `Quick test_store_versioning;
    Alcotest.test_case "store refuses a forged routine name" `Quick
      test_store_forged_name_refused;
    Alcotest.test_case "planted regression flagged" `Quick
      test_planted_regression;
    Alcotest.test_case "self diff clean" `Quick test_self_diff_clean;
    Alcotest.test_case "workload self diff clean" `Quick
      test_workload_self_diff_clean;
    Alcotest.test_case "confidence gate" `Quick test_confidence_gate;
    Alcotest.test_case "slope change" `Quick test_slope_change;
    Alcotest.test_case "divergence change" `Quick test_divergence_change;
    Alcotest.test_case "meta discipline" `Quick test_meta_discipline;
    Alcotest.test_case "only-in lists" `Quick test_only_in_lists;
    Alcotest.test_case "run meta fields" `Quick test_run_meta_fields;
  ]
