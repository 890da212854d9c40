(* Shared machinery for the experiment drivers: run a workload under the
   VM, profile its trace, and extract plot/table data. *)

module Workload = Aprof_workloads.Workload
module Registry = Aprof_workloads.Registry
module Profile = Aprof_core.Profile
module Metrics = Aprof_core.Metrics
module Drms = Aprof_core.Drms_profiler
module Interp = Aprof_vm.Interp
module Plot = Aprof_plot.Ascii_plot
module Stats = Aprof_util.Stats

type run = {
  result : Interp.result;
  profile : Profile.t;
  name : string;
}

(* Suite experiments default to the seeded random-preemptive scheduler:
   deterministic per seed, but with realistic interleaving variety (the
   round-robin scheduler repeats the same interleaving every iteration,
   which suppresses the scheduling-dependent drms variability the paper
   observes on real machines). *)
let default_scheduler =
  Aprof_vm.Scheduler.Random_preemptive { min_slice = 8; max_slice = 96 }

let run_spec ?(threads = Registry.default_threads)
    ?(scale = Registry.default_scale) ?(seed = Registry.default_seed)
    ?(scheduler = default_scheduler) (spec : Workload.spec) =
  let result = Workload.run_spec ~scheduler spec ~threads ~scale ~seed in
  let p = Drms.create () in
  Aprof_trace.Trace.replay result.Interp.trace (Drms.on_batch p);
  { result; profile = Drms.finish p; name = spec.Workload.name }

let run_named ?threads ?scale ?seed ?scheduler name =
  match Registry.find name with
  | Some spec -> run_spec ?threads ?scale ?seed ?scheduler spec
  | None -> failwith (Printf.sprintf "unknown workload %s" name)

let routine_id run name =
  match Aprof_trace.Routine_table.find run.result.Interp.routines name with
  | Some id -> id
  | None -> failwith (Printf.sprintf "routine %s missing from %s" name run.name)

let merged run rname =
  match List.assoc_opt (routine_id run rname) (Profile.merge_threads run.profile) with
  | Some d -> d
  | None -> failwith (Printf.sprintf "no profile for %s in %s" rname run.name)

let section ppf title =
  Format.fprintf ppf "@.=== %s ===@." title

(* [time f] is [f]'s wall-clock seconds and result, for by-product
   rates that are not samples (e.g. [-e faults]' salvage rate).  Every
   timed row comes from [sample]. *)
let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

(* --- the bench instrument -----------------------------------------------

   Every timed number comes from one sampler ([Stats.sample]: each round
   runs every cell of an experiment once, in order, on the wall clock),
   every bench input trace from one sizing rule ([sized]) and one
   recorder ([record]), and every timed row has one shape ([emit_row]
   with [metric] fields).  EXPERIMENTS.md "How a bench row is measured"
   gives the rules. *)

(* The round count of every timed experiment; one with fewer says why
   and what a round costs. *)
let rounds ~quick = if quick then 3 else 11

let sample ~rounds cells = Stats.sample ~now:Unix.gettimeofday ~rounds cells

(* [rate events samples] is the Mev/s of each sample, summarized: the
   quartiles of a rate are those of its per-sample rates. *)
let rate events samples =
  Stats.summary (Array.map (fun s -> float_of_int events /. s /. 1e6) samples)

let cores = Aprof_util.Par.available_parallelism ()

(* The stated bound of the sizing rule: a sized run has at least
   [target] events and at most [overshoot] times that. *)
let overshoot = 1.5

(* [size ?scheduler ~threads ~target name] is the spec of workload
   [name] and the scale whose run (seed 42) has between [target] and
   [overshoot * target] events, searched for from scale 100 with
   streaming runs that only count events, so no probe materializes a
   trace.  Near any one scale, trace length is a power of the scale
   (about linear for most workloads, about quadratic for mysqlslap), so
   each step fits that power through the last two runs (assuming 1
   after the first) and aims at the middle of the window; a step moves
   the scale by at most 4x after the first run and 16x after that. *)
let size ?scheduler ~threads ~target name =
  let spec =
    match Registry.find name with
    | Some spec -> spec
    | None -> failwith (Printf.sprintf "unknown workload %s" name)
  in
  let clamp limit x = Float.min limit (Float.max (1. /. limit) x) in
  let target = float_of_int target in
  let aim = target *. sqrt overshoot in
  let rec go tries prev scale =
    let r =
      Workload.run_spec_batched ?scheduler spec ~threads ~scale ~seed:42
        ~tool:(fun _ _ -> ())
    in
    let e = float_of_int r.Interp.events_emitted in
    if e >= target && e <= overshoot *. target then (spec, scale)
    else if tries = 0 then
      failwith
        (Printf.sprintf "%s: no scale found for %.0f events (scale %d: %.0f)"
           name target scale e)
    else
      let step =
        match prev with
        | Some (s0, e0) when e0 > 0. && e <> e0 ->
          let power =
            clamp 4.
              (log (e /. e0) /. log (float_of_int scale /. float_of_int s0))
          in
          clamp 16. ((aim /. e) ** (1. /. power))
        | _ -> clamp 4. (aim /. Float.max e 1.)
      in
      let next =
        match int_of_float (Float.round (float_of_int scale *. step)) with
        | next when next <> scale -> max 1 next
        | _ -> if e < target then scale + 1 else scale - 1
      in
      go (tries - 1) (Some (scale, e)) next
  in
  go 12 None 100

(* [sized ?scheduler ~threads ~target name] is the run {!size} finds,
   materialized, for a caller that walks the trace itself. *)
let sized ?scheduler ?(threads = 4) ~target name =
  let spec, scale = size ?scheduler ~threads ~target name in
  Workload.run_spec ?scheduler spec ~threads ~scale ~seed:42

(* [record ~target name formats] streams the run {!size} finds for
   [name] once, into one writer per (format version, entropy) of
   [formats], each to a fresh temporary file, and returns those paths
   in order with the event count.  No trace is materialized, so none is
   live while a caller times a replay of the files, and none sets the
   process's peak heap. *)
let record ~target name formats =
  let spec, scale = size ~threads:4 ~target name in
  let paths =
    List.map (fun _ -> Filename.temp_file "aprof_bench" ".atrc") formats
  in
  let ocs = List.map open_out_bin paths in
  let sinks = ref [] in
  let r =
    Workload.run_spec_batched spec ~threads:4 ~scale ~seed:42
      ~tool:(fun routines ->
        let routine_name = Aprof_trace.Routine_table.name routines in
        sinks :=
          List.map2
            (fun (format_version, entropy) oc ->
              Aprof_trace.Trace_codec.batch_writer ~format_version ~entropy
                ~routine_name oc)
            formats ocs;
        fun b ->
          List.iter (fun s -> s.Aprof_trace.Trace_stream.emit_batch b) !sinks)
  in
  List.iter (fun s -> s.Aprof_trace.Trace_stream.close_batch ()) !sinks;
  List.iter close_out ocs;
  (paths, r.Interp.events_emitted)

(* The penalized class of a cost curve, with its bootstrap confidence. *)
let fit_note ppf ~label points =
  let module Select = Aprof_analysis.Fit_select in
  match Select.select points with
  | Some { Select.best; confidence; _ } ->
    Format.fprintf ppf "  best fit for %s: %s (confidence %.2f, R^2 = %.4f)@."
      label
      (Aprof_analysis.Fit_basis.name best.Aprof_analysis.Fit_solve.cls)
      confidence best.Aprof_analysis.Fit_solve.r2
  | None -> Format.fprintf ppf "  best fit for %s: (not enough points)@." label

let curve_table ppf ~title curves =
  Format.fprintf ppf "%s@." title;
  Format.fprintf ppf "  %-16s" "benchmark";
  List.iter
    (fun f -> Format.fprintf ppf " %7s" (Printf.sprintf "%g%%" (100. *. f)))
    Metrics.standard_fractions;
  Format.fprintf ppf "@.";
  List.iter
    (fun (name, curve) ->
      Format.fprintf ppf "  %-16s" name;
      List.iter (fun (_, y) -> Format.fprintf ppf " %7.2f" y) curve;
      Format.fprintf ppf "@.")
    curves

(* --- machine-readable experiment rows (--json) ------------------------
   Experiments push flat rows here; the harness dumps them as a JSON
   array when invoked with [--json <file>], so perf numbers can be
   tracked across revisions without scraping the text report. *)

type json_value = Int of int | Float of float | String of string

let json_rows : (string * (string * json_value) list) list ref = ref []

(* A timed metric's fields: its median, then its quartiles. *)
let metric name (s : Stats.summary) =
  [
    (name, Float s.Stats.median);
    (name ^ "_p25", Float s.Stats.p25);
    (name ^ "_p75", Float s.Stats.p75);
  ]

(* Every row ends with the host's [cores]; a timed row ([~rounds]) also
   says how many rounds its metrics come from. *)
let emit_row ~experiment ?rounds fields =
  let rounds =
    match rounds with Some n -> [ ("rounds", Int n) ] | None -> []
  in
  json_rows :=
    (experiment, fields @ rounds @ [ ("cores", Int cores) ]) :: !json_rows

let json_value_to_string = function
  | Int i -> string_of_int i
  | Float f -> Aprof_util.Json.number f
  | String s -> Printf.sprintf "\"%s\"" (Aprof_util.Json.escape s)

let write_json path =
  let rows = List.rev !json_rows in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i (experiment, fields) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf "  {\"experiment\": %s"
           (json_value_to_string (String experiment)));
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf
            (Printf.sprintf ", %s: %s"
               (json_value_to_string (String k))
               (json_value_to_string v)))
        fields;
      Buffer.add_char buf '}')
    rows;
  Buffer.add_string buf "\n]\n";
  Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc buf)

(* [-t <tool>] on the harness command line: experiments that iterate
   over the standard tool factories (replay, table1) restrict themselves
   to the named tool.  [None] means all tools. *)
let tool_filter : string option ref = ref None

let keep_tool name =
  match !tool_filter with None -> true | Some t -> t = name

(* The benchmark sets used by the paper's figures. *)
let fig11_set_a = [ "fluidanimate"; "mysqlslap"; "smithwa"; "dedup"; "nab" ]
let fig11_set_b = [ "bodytrack"; "swaptions"; "vips"; "x264" ]
let fig14_set = [ "swaptions"; "bodytrack"; "smithwa"; "kdtree"; "dedup"; "x264" ]

let parsec_suite () =
  List.map (fun s -> s.Workload.name) (Registry.by_suite Workload.Parsec)

let omp_suite () =
  List.map (fun s -> s.Workload.name) (Registry.by_suite Workload.Omp)
