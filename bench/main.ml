(* Benchmark harness entry point: regenerates every table and figure of
   the paper's evaluation.  `dune exec bench/main.exe` runs everything;
   `-e <id>` selects one experiment; `-quick` shrinks workloads;
   `-t <tool>` restricts tool-sweep experiments to one tool. *)

let experiments quick :
    (string * string * (Format.formatter -> unit)) list =
  [
    ("fig1", "drms examples (Figure 1)", Exp_fig1.run);
    ("patterns", "producer-consumer and streaming (Figures 2-3)", Exp_patterns.run);
    ("fig4", "mysql_select cost plots (Figure 4)", Exp_mysql.run);
    ("fig5-6", "vips im_generate and wbuffer (Figures 5-6)", Exp_vips.run);
    ("fig10", "basic blocks vs time (Figure 10)", Exp_sort.run);
    ("fig11", "profile richness (Figure 11)", Exp_richness.run);
    ("fig12", "dynamic input volume (Figure 12)", Exp_volume.run);
    ("fig13", "routine breakdown, MySQL and vips (Figure 13)", Exp_breakdown.run);
    ("fig14", "thread/external input curves (Figure 14)", Exp_sources.run);
    ("fig15", "induced first-read characterization (Figure 15)", Exp_characterize.run);
    ("table1", "tool slowdown and space (Table 1)", Exp_table1.run ~quick);
    ("fig16", "overhead vs thread count (Figure 16)", Exp_scaling.run ~quick);
    ("sched", "scheduler sensitivity", Exp_sched.run);
    ("codec", "binary vs text trace pipeline", Exp_codec.run ~quick);
    ("replay", "batched replay hot path, per tool", Exp_replay.run ~quick);
    ("parallel", "sharded parallel replay scaling", Exp_parallel.run ~quick);
    ("serve", "concurrent ingest daemon throughput", Exp_serve.run ~quick);
    ("faults", "fault injection and salvage on a recorded trace", Exp_faults.run ~quick);
    ("fit", "penalized cost-model selection battery", Exp_fit.run ~quick);
    ("comm", "communication characterization (future-work direction)", Exp_comm.run);
    ("ablation", "design-choice ablations", Exp_ablation.run);
    ("bechamel", "microbenchmarks", Micro.run);
  ]

let () =
  let quick = Array.exists (( = ) "-quick") Sys.argv in
  let selected = ref None in
  let json_out = ref None in
  Array.iteri
    (fun i arg ->
      if arg = "-e" && i + 1 < Array.length Sys.argv then
        selected := Some Sys.argv.(i + 1);
      if arg = "--json" && i + 1 < Array.length Sys.argv then
        json_out := Some Sys.argv.(i + 1);
      if arg = "-t" && i + 1 < Array.length Sys.argv then
        Exp_common.tool_filter := Some Sys.argv.(i + 1))
    Sys.argv;
  let ppf = Format.std_formatter in
  let exps = experiments quick in
  let to_run =
    match !selected with
    | None -> exps
    | Some id -> (
      match List.filter (fun (eid, _, _) -> eid = id) exps with
      | [] ->
        Format.fprintf ppf "unknown experiment %S; available: %s@." id
          (String.concat ", " (List.map (fun (eid, _, _) -> eid) exps));
        exit 1
      | l -> l)
  in
  Format.fprintf ppf "aprof-drms experiment harness (%d experiments)@."
    (List.length to_run);
  List.iter
    (fun (id, desc, f) ->
      Format.fprintf ppf "@.>>> %s: %s@." id desc;
      let t0 = Sys.time () in
      f ppf;
      Format.fprintf ppf "<<< %s done in %.1fs@." id (Sys.time () -. t0))
    to_run;
  match !json_out with
  | None -> ()
  | Some path ->
    Exp_common.write_json path;
    Format.fprintf ppf "@.experiment rows written to %s@." path
