(* Shared machinery for the experiment drivers: run a workload under the
   VM, profile its trace, and extract plot/table data. *)

module Workload = Aprof_workloads.Workload
module Registry = Aprof_workloads.Registry
module Profile = Aprof_core.Profile
module Metrics = Aprof_core.Metrics
module Drms = Aprof_core.Drms_profiler
module Interp = Aprof_vm.Interp
module Plot = Aprof_plot.Ascii_plot

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

let cost_points ~metric d =
  Aprof_core.Fit.points_of_profile ~metric ~cost:`Max d
  |> List.map (fun (n, c) -> (float_of_int n, c))

let section ppf title =
  Format.fprintf ppf "@.=== %s ===@." title

let fit_note ppf ~label points =
  let int_points = List.map (fun (x, y) -> (int_of_float x, y)) points in
  match Aprof_core.Fit.best_fit int_points with
  | Some { Aprof_core.Fit.model; r_squared; _ } ->
    Format.fprintf ppf "  best fit for %s: %s (R^2 = %.4f)@." label
      (Aprof_core.Fit.model_name model)
      r_squared
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

let emit_row ~experiment fields =
  json_rows := (experiment, fields) :: !json_rows

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_value_to_string = function
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_finite f then Printf.sprintf "%.6g" f else "null"
  | String s -> Printf.sprintf "\"%s\"" (json_escape s)

let write_json path =
  let rows = List.rev !json_rows in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i (experiment, fields) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf "  {\"experiment\": \"%s\"" (json_escape experiment));
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf
            (Printf.sprintf ", \"%s\": %s" (json_escape k)
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
