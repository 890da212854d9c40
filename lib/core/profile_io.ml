module L = Aprof_util.Line_record

let metric_name = function `Drms -> "drms" | `Rms -> "rms"

let metric f =
  match L.text f with
  | "drms" -> `Drms
  | "rms" -> `Rms
  | m -> L.fail "unknown metric %S" m

(* Version history:
   1 — the original unversioned dump (agg/ops/point/routine records, no
       header); still accepted on load.
   2 — identical records, prefixed by an explicit [format,2] header so
       readers (and [aprof merge], which combines dumps from different
       runs) can reject formats they do not understand instead of
       misparsing them.
   3 — adds an optional [meta,<run metadata>] line (workload, seed,
       scale, threads, scheduler — see {!Run_meta}) so a
       dump records the run that produced it and the regression watch
       can refuse to compare apples to oranges. *)
let format_version = 3

let to_string ?routine_name ?meta t =
  let w = L.writer ~kind:"format" ~version:format_version in
  Option.iter (Run_meta.write w) meta;
  Option.iter
    (fun name ->
      List.iter
        (fun r ->
          L.record w "routine";
          L.add_int w r;
          L.add_last w (name r))
        (Profile.routines t))
    routine_name;
  Profile.keys t
  |> List.sort (fun a b ->
         compare (a.Profile.routine, a.Profile.tid) (b.Profile.routine, b.Profile.tid))
  |> List.iter (fun k ->
         let d = Option.get (Profile.data t k) in
         let start kind =
           L.record w kind;
           L.add_int w k.Profile.tid;
           L.add_int w k.Profile.routine
         in
         start "agg";
         L.add_int w d.Profile.activations;
         List.iter (L.add_float w)
           [ d.Profile.sum_rms; d.Profile.sum_drms; d.Profile.total_cost ];
         L.eol w;
         start "ops";
         List.iter (L.add_int w)
           [ d.Profile.first_read_ops; d.Profile.induced_thread_ops;
             d.Profile.induced_external_ops ];
         L.eol w;
         List.iter
           (fun (m, points) ->
             List.iter
               (fun (p : Profile.point) ->
                 start "point";
                 L.add_text w (metric_name m);
                 List.iter (L.add_int w)
                   [ p.Profile.input; p.calls; p.max_cost; p.min_cost ];
                 List.iter (L.add_float w) [ p.sum_cost; p.sum_cost_sq ];
                 L.eol w)
               points)
           [ (`Drms, d.Profile.drms_points); (`Rms, d.Profile.rms_points) ]);
  L.contents w

let of_string s =
  let profile = Profile.create () in
  let names = ref [] and meta = ref None in
  L.read ~kind:"format" ~version:format_version ~headerless:true
    [
      ("meta", fun f -> meta := Some (Run_meta.read f));
      ( "routine",
        fun f ->
          let id = L.int f in
          names := (id, L.last f) :: !names );
      ( "agg",
        fun f ->
          let tid = L.int f in
          let routine = L.int f in
          let activations = L.int f in
          let sum_rms = L.float f in
          let sum_drms = L.float f in
          Profile.restore_aggregates profile ~tid ~routine ~activations ~sum_rms
            ~sum_drms ~total_cost:(L.float f) );
      ( "ops",
        fun f ->
          let tid = L.int f in
          let routine = L.int f in
          let plain = L.int f in
          let induced_thread = L.int f in
          Profile.record_ops profile ~tid ~routine ~plain ~induced_thread
            ~induced_external:(L.int f) );
      ( "point",
        fun f ->
          let tid = L.int f in
          let routine = L.int f in
          let metric = metric f in
          let input = L.int f in
          let calls = L.int f in
          let max_cost = L.int f in
          let min_cost = L.int f in
          let sum_cost = L.float f in
          Profile.restore_point profile ~tid ~routine ~metric
            { Profile.input; calls; max_cost; min_cost; sum_cost;
              sum_cost_sq = L.float f } );
    ]
    s
  |> Result.map (fun () -> (profile, List.rev !names, !meta))

let load path = Result.bind (L.read_file path) of_string

let render_report ~routine_name profile =
  Format.asprintf "%a@.dynamic input volume: %.3f@."
    (Profile.pp routine_name) profile
    (Metrics.dynamic_input_volume profile)
