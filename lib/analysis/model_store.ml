type metric = [ `Drms | `Rms ]

let metric_name = function `Drms -> "drms" | `Rms -> "rms"

let metric_of_name = function
  | "drms" -> Some `Drms
  | "rms" -> Some `Rms
  | _ -> None

type entry = {
  routine : string;
  metric : metric;
  cls : Fit_basis.cls;
  coefs : float array;
  n_points : int;
  r2 : float;
  confidence : float;
  exponent : (float * float * float) option;
}

type t = { meta : Run_meta.t option; entries : entry list }

let format_version = 1

let sort_entries entries =
  List.sort
    (fun a b ->
      compare (a.routine, metric_name a.metric) (b.routine, metric_name b.metric))
    entries

let create ?meta entries = { meta; entries = sort_entries entries }

let find t ~routine ~metric =
  List.find_opt (fun e -> e.routine = routine && e.metric = metric) t.entries

let routines t =
  List.map (fun e -> e.routine) t.entries |> List.sort_uniq compare

(* Line shape:
     model,<metric>,<cls>,<n_points>,<r2>,<confidence>,<k>,<lo>,<hi>,
           <ncoefs>,<c0>,...,<routine name (may contain commas)>
   A missing exponent is stored as three [nan] fields. *)
let to_string t =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  add "costmodel,%d" format_version;
  (match t.meta with
  | Some m -> add "meta,%s" (String.concat "," (Run_meta.to_fields m))
  | None -> ());
  List.iter
    (fun e ->
      let k, lo, hi =
        match e.exponent with Some v -> v | None -> (nan, nan, nan)
      in
      add "model,%s,%s,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d,%s,%s"
        (metric_name e.metric) (Fit_basis.token e.cls) e.n_points e.r2
        e.confidence k lo hi (Array.length e.coefs)
        (String.concat ","
           (Array.to_list (Array.map (Printf.sprintf "%.17g") e.coefs)))
        e.routine)
    (sort_entries t.entries);
  Buffer.contents buf

let rec take n = function
  | [] -> if n = 0 then Some [] else None
  | x :: rest ->
    if n = 0 then Some []
    else Option.map (fun l -> x :: l) (take (n - 1) rest)

let rec drop n l =
  if n = 0 then Some l
  else match l with [] -> None | _ :: rest -> drop (n - 1) rest

let parse_model_line fields =
  match fields with
  | metric :: cls :: npts :: r2 :: conf :: k :: lo :: hi :: ncoefs :: rest -> (
    match
      ( metric_of_name metric,
        Fit_basis.of_token cls,
        int_of_string_opt npts,
        float_of_string_opt r2,
        float_of_string_opt conf,
        float_of_string_opt k,
        float_of_string_opt lo,
        float_of_string_opt hi,
        int_of_string_opt ncoefs )
    with
    | ( Some metric,
        Some cls,
        Some n_points,
        Some r2,
        Some confidence,
        Some k,
        Some lo,
        Some hi,
        Some nc )
      when nc >= 0 -> (
      match (take nc rest, drop nc rest) with
      | _ when nc <> Fit_basis.param_count cls ->
        (* Every consumer indexes coefficients by class. *)
        Error
          (Printf.sprintf "class %s takes %d coefficients, not %d"
             (Fit_basis.token cls) (Fit_basis.param_count cls) nc)
      | Some coef_fields, Some name_fields when name_fields <> [] ->
        let coefs = List.map float_of_string_opt coef_fields in
        if List.exists Option.is_none coefs then Error "bad coefficient"
        else
          let coefs = Array.of_list (List.map Option.get coefs) in
          let routine = String.concat "," name_fields in
          let exponent = if Float.is_nan k then None else Some (k, lo, hi) in
          Ok { routine; metric; cls; coefs; n_points; r2; confidence; exponent }
      | _ -> Error "bad model record: missing coefficients or routine name")
    | _ -> Error "bad model record")
  | _ -> Error "bad model record"

let of_string s =
  let lines = String.split_on_char '\n' s in
  let fail lineno fmt =
    Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" lineno m)) fmt
  in
  let rec go lineno ~seen_header meta entries = function
    | [] -> Ok { meta; entries = sort_entries (List.rev entries) }
    | line :: rest -> (
      let line = String.trim line in
      match String.split_on_char ',' line with
      | [ "" ] -> go (lineno + 1) ~seen_header meta entries rest
      | [ "costmodel"; v ] -> (
        match int_of_string_opt v with
        | Some v when v >= 1 && v <= format_version ->
          go (lineno + 1) ~seen_header:true meta entries rest
        | Some v ->
          fail lineno "unsupported cost-model format version %d (expected <= %d)"
            v format_version
        | None -> fail lineno "bad cost-model format version %S" v)
      | _ when not seen_header ->
        fail lineno "not a cost-model store (missing costmodel,<version> header)"
      | "meta" :: fields -> (
        match Run_meta.of_fields fields with
        | Ok m -> go (lineno + 1) ~seen_header (Some m) entries rest
        | Error e -> fail lineno "%s" e)
      | "model" :: fields -> (
        match parse_model_line fields with
        | Ok e -> go (lineno + 1) ~seen_header meta (e :: entries) rest
        | Error e -> fail lineno "%s" e)
      | kind :: _ -> fail lineno "unknown record kind %S" kind
      | [] -> go (lineno + 1) ~seen_header meta entries rest)
  in
  go 1 ~seen_header:false None [] lines

let save oc t = output_string oc (to_string t)
let load ic = of_string (In_channel.input_all ic)
