(* Scheduler sensitivity (Section 4.2, "Dynamic Workload
   Characterization"): re-run benchmarks under different scheduling
   configurations.  The paper's claim — and the invariant the sched-gate
   CI job enforces — is that external input is a property of the program,
   not of the schedule: per-routine external-op counts must be identical
   under every scheduler, while thread-induced input may fluctuate.

   The fluctuation metrics follow "Multithreaded Input-Sensitive
   Profiling" (arXiv 1304.3804): per-routine coefficient of variation of
   thread-induced input across schedulers, external-input invariance per
   routine, and the whole-benchmark thread-share fluctuation
   100*(max-min)/mean.  A benchmark whose mean thread share is zero has
   no thread-induced signal at all; reporting fluctuation 0% there would
   conflate "perfectly stable" with "nothing to measure", so such rows
   print n/a and omit the JSON field, with [signal] telling the two
   apart. *)

module Scheduler = Aprof_vm.Scheduler
module Metrics = Aprof_core.Metrics
module Profile = Aprof_core.Profile
module Basis = Aprof_analysis.Fit_basis
module Solve = Aprof_analysis.Fit_solve
module Select = Aprof_analysis.Fit_select
module Stats = Aprof_util.Stats

let schedulers =
  [
    ("rr-64", Scheduler.Round_robin { slice = 64 });
    ("rr-16", Scheduler.Round_robin { slice = 16 });
    ("rr-256", Scheduler.Round_robin { slice = 256 });
    ("serialized", Scheduler.Serialized);
    ("random-a", Scheduler.Random_preemptive { min_slice = 8; max_slice = 128 });
    ("random-b", Scheduler.Random_preemptive { min_slice = 32; max_slice = 64 });
    ("ws-2", Scheduler.Work_stealing { workers = 2; slice = 64 });
    ("ws-4", Scheduler.Work_stealing { workers = 4; slice = 64 });
    ("async", Scheduler.Async_io { slice = 64; io_delay = 16 });
  ]

(* mysqlslap is deliberately absent: its clients draw request shapes
   from the shared VM rng at run time, so the *order* of draws — and
   with it the external-op total — depends on the interleaving.  Every
   workload below fixes its external demand at build time. *)
let benchmarks =
  [
    "vips"; "dedup"; "fluidanimate"; "nab"; "smithwa"; "bodytrack";
    "stm"; "server"; "merge_sort";
  ]

let thread_share run =
  match Metrics.suite_characterization run.Exp_common.profile with
  | Some (t, _) -> t
  | None -> 0.

(* Per-routine merged data keyed by routine *name*: intern ids are
   assigned in first-call order, which differs across schedulers, so
   cross-scheduler comparison must go through the name table. *)
let by_name run =
  List.map
    (fun (id, d) ->
      (Aprof_trace.Routine_table.name run.Exp_common.result.Aprof_vm.Interp.routines id, d))
    (Profile.merge_threads run.Exp_common.profile)

let external_ops named =
  List.fold_left (fun acc (_, d) -> acc + d.Profile.induced_external_ops) 0 named

(* Coefficient of variation of [routine]'s thread-induced ops across the
   scheduler runs; a routine a scheduler never profiled contributes 0
   (it really did induce nothing there). *)
let routine_cv named_runs routine =
  let xs =
    List.map
      (fun named ->
        match List.assoc_opt routine named with
        | Some d -> float_of_int d.Profile.induced_thread_ops
        | None -> 0.)
      named_runs
  in
  let m = Stats.mean xs in
  if m <= 0. then None else Some (Stats.stddev xs /. m)

(* Routines whose external-op count differs between any two schedulers.
   The paper (and the CI gate) expect this list to be empty. *)
let external_variant_routines named_runs routines =
  List.filter
    (fun r ->
      let xs =
        List.map
          (fun named ->
            match List.assoc_opt r named with
            | Some d -> d.Profile.induced_external_ops
            | None -> 0)
          named_runs
      in
      List.exists (fun x -> x <> List.hd xs) xs)
    routines

(* Cost-class recovery: fit the *same* routine (by name) in every run
   and check the selected model agrees across schedulers.  Two selection
   rules matter: (a) re-choosing the richest routine per run would
   measure routine-selection churn, not fit stability; (b) the anchor's
   drms *input set* must itself be schedule-invariant — a routine whose
   x-axis is thread-induced (an STM retry loop, a work-queue drain) has
   no cross-scheduler-comparable cost class, only scheduler-specific
   curves.  Among input-stable routines with at least 3 distinct points
   everywhere, take the one richest in its poorest run. *)
let drms_inputs named r =
  match List.assoc_opt r named with
  | Some d -> List.map fst (Profile.cost_points ~metric:`Drms ~cost:`Max d)
  | None -> []

let class_routine named_runs routines =
  let min_points r =
    List.fold_left
      (fun acc named ->
        let n =
          match List.assoc_opt r named with
          | Some d -> Metrics.distinct_points ~metric:`Drms d
          | None -> 0
        in
        min acc n)
      max_int named_runs
  in
  let input_stable r =
    match List.map (fun named -> drms_inputs named r) named_runs with
    | [] -> false
    | s0 :: rest -> List.for_all (( = ) s0) rest
  in
  List.fold_left
    (fun best r ->
      let n = min_points r in
      match best with
      | Some (_, bn) when bn >= n -> best
      | _ when n >= 3 && input_stable r -> Some (r, n)
      | _ -> best)
    None routines

(* The anchor's penalized class in one run, with its bootstrap
   confidence. *)
let class_of named routine =
  match List.assoc_opt routine named with
  | Some d -> (
    match Select.select (Profile.cost_points ~metric:`Drms ~cost:`Max d) with
    | Some sel ->
      Some (Basis.name sel.Select.best.Solve.cls, sel.Select.confidence)
    | None -> None)
  | None -> None

let run ppf =
  Exp_common.section ppf
    "sched: thread/external input stability across scheduler configurations";
  Format.fprintf ppf "  %d schedulers x %d benchmarks@." (List.length schedulers)
    (List.length benchmarks);
  Format.fprintf ppf "  %-14s %8s %8s %8s %10s %8s %14s %8s %5s@." "benchmark"
    "thread%" "fluct" "cv-mean" "cv-max" "ext-var" "ext ops" "class" "conf";
  List.iter
    (fun name ->
      let runs =
        List.map
          (fun (sname, sched) ->
            (sname, Exp_common.run_named ~scale:800 ~scheduler:sched name))
          schedulers
      in
      let named_runs = List.map (fun (_, r) -> by_name r) runs in
      let shares = List.map (fun (_, r) -> thread_share r) runs in
      let ext_counts = List.map external_ops named_runs in
      let ext_min = List.fold_left min max_int ext_counts in
      let ext_max = List.fold_left max 0 ext_counts in
      let mean = Stats.mean shares in
      let fluct =
        if mean <= 0. then None
        else
          Some
            (100.
            *. (List.fold_left Float.max neg_infinity shares
               -. List.fold_left Float.min infinity shares)
            /. mean)
      in
      let routines =
        List.sort_uniq compare (List.concat_map (List.map fst) named_runs)
      in
      let cvs = List.filter_map (routine_cv named_runs) routines in
      let cv_mean = if cvs = [] then 0. else Stats.mean cvs in
      let cv_max = List.fold_left Float.max 0. cvs in
      let ext_variant = external_variant_routines named_runs routines in
      let fit_routine = class_routine named_runs routines in
      let cell_classes =
        match fit_routine with
        | None -> List.map (fun _ -> None) named_runs
        | Some (r, _) -> List.map (fun named -> class_of named r) named_runs
      in
      (* The benchmark's confidence is its least confident run's. *)
      let class_name, class_stable, class_confidence =
        match List.filter_map Fun.id cell_classes with
        | [] -> ("n/a", true, None)
        | (c0, _) :: rest as cells ->
          ( c0,
            List.for_all (fun (c, _) -> c = c0) rest,
            Some (List.fold_left (fun m (_, p) -> Float.min m p) 1. cells) )
      in
      Format.fprintf ppf
        "  %-14s %7.1f%% %8s %8.3f %10.3f %8d %6d/%-6d %8s %5s%s@." name mean
        (match fluct with Some f -> Printf.sprintf "%.1f%%" f | None -> "n/a")
        cv_mean cv_max
        (List.length ext_variant)
        ext_min ext_max class_name
        (match class_confidence with
        | Some p -> Printf.sprintf "%.2f" p
        | None -> "-")
        (if class_stable then "" else " (UNSTABLE)");
      (* One row per (benchmark, scheduler) so the gate can count the
         matrix and check invariance without re-deriving aggregates. *)
      List.iteri
        (fun i ((sname, r), named) ->
          Exp_common.emit_row ~experiment:"sched_cell"
            ([
               ("benchmark", Exp_common.String name);
               ("scheduler", Exp_common.String sname);
               ("thread_pct", Exp_common.Float (thread_share r));
               ("external_ops", Exp_common.Int (external_ops named));
             ]
            @ (match (fit_routine, List.nth cell_classes i) with
              | Some (routine, _), Some (c, p) ->
                [
                  ("fit_routine", Exp_common.String routine);
                  ("cost_class", Exp_common.String c);
                  ("cost_class_confidence", Exp_common.Float p);
                ]
              | _ -> [])))
        (List.combine runs named_runs);
      Exp_common.emit_row ~experiment:"sched"
        ([
           ("benchmark", Exp_common.String name);
           ("schedulers", Exp_common.Int (List.length runs));
           ("thread_pct_mean", Exp_common.Float mean);
         ]
        @ (match fluct with
          | Some f ->
            [
              ("fluct_pct", Exp_common.Float f);
              ("signal", Exp_common.String "thread");
            ]
          | None -> [ ("signal", Exp_common.String "none") ])
        @ (match fit_routine with
          | Some (r, _) -> [ ("fit_routine", Exp_common.String r) ]
          | None -> [])
        @ [
            ("routine_cv_mean", Exp_common.Float cv_mean);
            ("routine_cv_max", Exp_common.Float cv_max);
            ("external_variant_routines", Exp_common.Int (List.length ext_variant));
            ("external_ops_min", Exp_common.Int ext_min);
            ("external_ops_max", Exp_common.Int ext_max);
            ("cost_class", Exp_common.String class_name);
            ("cost_class_stable", Exp_common.Int (if class_stable then 1 else 0));
          ]
        @ match class_confidence with
          | Some p -> [ ("cost_class_confidence", Exp_common.Float p) ]
          | None -> []))
    benchmarks;
  Format.fprintf ppf
    "  (paper: external input is stable across runs; thread input fluctuates \
     by ~2%% on average with rare large peaks.  fluct = n/a means the \
     benchmark induced no thread input under any scheduler — no signal, \
     not stability.)@."
