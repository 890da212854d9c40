let metric_name = function `Drms -> "drms" | `Rms -> "rms"

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

let writable_name name =
  not (String.contains name '\n' || String.contains name '\r')

let save_buf buf ?routine_name ?meta (t : Profile.t) =
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  add "format,%d" format_version;
  (match meta with
  | None -> ()
  | Some m ->
    add "meta,%s"
      (String.concat "," (Run_meta.to_fields m)));
  let keys =
    Profile.keys t
    |> List.sort (fun a b ->
           compare
             (a.Profile.routine, a.Profile.tid)
             (b.Profile.routine, b.Profile.tid))
  in
  (match routine_name with
  | None -> ()
  | Some name ->
    let seen = Hashtbl.create 16 in
    List.iter
      (fun k ->
        let r = k.Profile.routine in
        if not (Hashtbl.mem seen r) then begin
          Hashtbl.add seen r ();
          let n = name r in
          if not (writable_name n) then
            invalid_arg
              (Printf.sprintf "Profile_io: routine %d: name contains a line break" r);
          add "routine,%d,%s" r n
        end)
      keys);
  List.iter
    (fun k ->
      match Profile.data t k with
      | None -> ()
      | Some d ->
        let tid = k.Profile.tid and routine = k.Profile.routine in
        add "agg,%d,%d,%d,%.17g,%.17g,%.17g" tid routine d.Profile.activations
          d.Profile.sum_rms d.Profile.sum_drms d.Profile.total_cost;
        add "ops,%d,%d,%d,%d,%d" tid routine d.Profile.first_read_ops
          d.Profile.induced_thread_ops d.Profile.induced_external_ops;
        List.iter
          (fun (metric, points) ->
            List.iter
              (fun (p : Profile.point) ->
                add "point,%d,%d,%s,%d,%d,%d,%d,%.17g,%.17g" tid routine
                  (metric_name metric) p.Profile.input p.Profile.calls
                  p.Profile.max_cost p.Profile.min_cost p.Profile.sum_cost
                  p.Profile.sum_cost_sq)
              points)
          [ (`Drms, d.Profile.drms_points); (`Rms, d.Profile.rms_points) ])
    keys

let to_string ?routine_name ?meta t =
  let buf = Buffer.create 4096 in
  save_buf buf ?routine_name ?meta t;
  Buffer.contents buf

let save oc ?routine_name ?meta t =
  output_string oc (to_string ?routine_name ?meta t)

let parse_line lineno profile names meta line =
  let fail fmt =
    Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" lineno m)) fmt
  in
  match String.split_on_char ',' (String.trim line) with
  | [ "" ] -> Ok ()
  | [ "format"; v ] -> (
    (* A dump without this header is a version-1 file; with it, the
       version must be one this reader understands. *)
    match int_of_string_opt v with
    | Some v when v >= 1 && v <= format_version -> Ok ()
    | Some v ->
      fail "unsupported profile format version %d (expected <= %d)" v
        format_version
    | None -> fail "bad format version %S" v)
  | "meta" :: fields -> (
    match Run_meta.of_fields fields with
    | Ok m ->
      meta := Some m;
      Ok ()
    | Error e -> fail "%s" e)
  | "routine" :: id :: rest -> (
    match int_of_string_opt id with
    | Some id ->
      (* names may themselves contain commas *)
      names := (id, String.concat "," rest) :: !names;
      Ok ()
    | None -> fail "bad routine id")
  | [ "agg"; tid; routine; acts; sr; sd; tc ] -> (
    match
      ( int_of_string_opt tid,
        int_of_string_opt routine,
        int_of_string_opt acts,
        float_of_string_opt sr,
        float_of_string_opt sd,
        float_of_string_opt tc )
    with
    | Some tid, Some routine, Some acts, Some sr, Some sd, Some tc ->
      Profile.restore_aggregates profile ~tid ~routine ~activations:acts
        ~sum_rms:sr ~sum_drms:sd ~total_cost:tc;
      Ok ()
    | _ -> fail "bad agg record")
  | [ "ops"; tid; routine; plain; ith; iex ] -> (
    match
      ( int_of_string_opt tid,
        int_of_string_opt routine,
        int_of_string_opt plain,
        int_of_string_opt ith,
        int_of_string_opt iex )
    with
    | Some tid, Some routine, Some plain, Some ith, Some iex ->
      Profile.record_ops profile ~tid ~routine ~plain ~induced_thread:ith
        ~induced_external:iex;
      Ok ()
    | _ -> fail "bad ops record")
  | [ "point"; tid; routine; metric; input; calls; mx; mn; sum; sumsq ] -> (
    match
      ( int_of_string_opt tid,
        int_of_string_opt routine,
        (match metric with
        | "drms" -> Some `Drms
        | "rms" -> Some `Rms
        | _ -> None),
        int_of_string_opt input,
        int_of_string_opt calls,
        int_of_string_opt mx,
        int_of_string_opt mn,
        float_of_string_opt sum,
        float_of_string_opt sumsq )
    with
    | ( Some tid,
        Some routine,
        Some metric,
        Some input,
        Some calls,
        Some max_cost,
        Some min_cost,
        Some sum_cost,
        Some sum_cost_sq ) ->
      Profile.restore_point profile ~tid ~routine ~metric
        { Profile.input; calls; max_cost; min_cost; sum_cost; sum_cost_sq };
      Ok ()
    | _ -> fail "bad point record")
  | kind :: _ -> fail "unknown record kind %S" kind
  | [] -> Ok ()

let of_string_meta s =
  let profile = Profile.create () in
  let names = ref [] in
  let meta = ref None in
  let lines = String.split_on_char '\n' s in
  let rec go lineno = function
    | [] -> Ok (profile, List.rev !names, !meta)
    | line :: rest -> (
      match parse_line lineno profile names meta line with
      | Ok () -> go (lineno + 1) rest
      | Error e -> Error e)
  in
  go 1 lines

let of_string s =
  Result.map (fun (profile, names, _) -> (profile, names)) (of_string_meta s)

let load ic = of_string (In_channel.input_all ic)
let load_meta ic = of_string_meta (In_channel.input_all ic)

let render_report ~routine_name profile =
  Format.asprintf "%a@.dynamic input volume: %.3f@."
    (Profile.pp routine_name) profile
    (Metrics.dynamic_input_volume profile)
