module L = Aprof_util.Line_record
module Profile_io = Aprof_core.Profile_io

type metric = [ `Drms | `Rms ]

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

type t = { meta : Aprof_core.Run_meta.t option; entries : entry list }

let format_version = 1

let sort_entries entries =
  List.sort
    (fun a b ->
      compare
        (a.routine, Profile_io.metric_name a.metric)
        (b.routine, Profile_io.metric_name b.metric))
    entries

let create ?meta entries = { meta; entries = sort_entries entries }

let analyze ?bootstrap ?seed ~routine_name profile =
  Aprof_core.Profile.merge_threads profile
  |> List.concat_map (fun (rid, data) ->
         List.filter_map
           (fun metric ->
             let points =
               Aprof_core.Profile.cost_points ~metric ~cost:`Max data
             in
             Fit_select.select ?bootstrap ?seed points
             |> Option.map (fun (sel : Fit_select.selection) ->
                    {
                      routine = routine_name rid;
                      metric;
                      cls = sel.best.Fit_solve.cls;
                      coefs = sel.best.Fit_solve.coefs;
                      n_points = sel.n_points;
                      r2 = sel.best.Fit_solve.r2;
                      confidence = sel.confidence;
                      exponent = sel.exponent;
                    }))
           [ `Drms; `Rms ])

let find t ~routine ~metric =
  List.find_opt (fun e -> e.routine = routine && e.metric = metric) t.entries

let routines t =
  List.map (fun e -> e.routine) t.entries |> List.sort_uniq compare

(* Line shape:
     model,<metric>,<cls>,<n_points>,<r2>,<confidence>,<k>,<lo>,<hi>,
           <ncoefs>,<c0>,...,<routine name (may contain commas)>
   A missing exponent is stored as three [nan] fields, so a present one
   must have a number for [k]. *)
let to_string t =
  let w = L.writer ~kind:"costmodel" ~version:format_version in
  Option.iter (Aprof_core.Run_meta.write w) t.meta;
  List.iter
    (fun e ->
      let k, lo, hi =
        match e.exponent with Some v -> v | None -> (nan, nan, nan)
      in
      if
        (e.exponent <> None && Float.is_nan k)
        || Array.length e.coefs <> Fit_basis.param_count e.cls
      then
        invalid_arg
          (Printf.sprintf "Model_store: the model of %S would not read back"
             e.routine);
      L.record w "model";
      L.add_text w (Profile_io.metric_name e.metric);
      L.add_text w (Fit_basis.token e.cls);
      L.add_int w e.n_points;
      List.iter (L.add_float w) [ e.r2; e.confidence; k; lo; hi ];
      L.add_int w (Array.length e.coefs);
      Array.iter (L.add_float w) e.coefs;
      L.add_last w e.routine)
    (sort_entries t.entries);
  L.contents w

let of_string s =
  let meta = ref None and entries = ref [] in
  let model f =
    let metric = Profile_io.metric f in
    let cls =
      let t = L.text f in
      match Fit_basis.of_token t with
      | Some c -> c
      | None -> L.fail "unknown cost class %S" t
    in
    let n_points = L.int f in
    let r2 = L.float f in
    let confidence = L.float f in
    let k = L.float f in
    let lo = L.float f in
    let hi = L.float f in
    let nc = L.int f in
    (* Every consumer indexes coefficients by class. *)
    if nc <> Fit_basis.param_count cls then
      L.fail "class %s takes %d coefficients, not %d" (Fit_basis.token cls)
        (Fit_basis.param_count cls) nc;
    let coefs = Array.init nc (fun _ -> L.float f) in
    let exponent = if Float.is_nan k then None else Some (k, lo, hi) in
    let routine = L.last f in
    { routine; metric; cls; coefs; n_points; r2; confidence; exponent }
  in
  L.read ~kind:"costmodel" ~version:format_version
    [
      ("meta", fun f -> meta := Some (Aprof_core.Run_meta.read f));
      ("model", fun f -> entries := model f :: !entries);
    ]
    s
  |> Result.map (fun () ->
         { meta = !meta; entries = sort_entries (List.rev !entries) })

let load path = Result.bind (L.read_file path) of_string
