module Profile_io = Aprof_core.Profile_io

type severity = Regression | Improvement | Info

type change =
  | Class_change of {
      old_cls : Fit_basis.cls;
      new_cls : Fit_basis.cls;
      old_confidence : float;
      new_confidence : float;
    }
  | Slope_change of {
      cls : Fit_basis.cls;
      old_coef : float;
      new_coef : float;
      ratio : float;
    }
  | Divergence_change of { was_divergent : bool; now_divergent : bool }

type finding = {
  routine : string;
  metric : Model_store.metric option;
  severity : severity;
  change : change;
}

type report = {
  findings : finding list;
  compared : int;
  only_old : string list;
  only_new : string list;
  min_confidence : float;
  slope_ratio : float;
}

let class_finding ~min_confidence routine metric (o : Model_store.entry)
    (n : Model_store.entry) =
  if o.Model_store.cls = n.Model_store.cls then None
  else
    let confident =
      o.Model_store.confidence >= min_confidence
      && n.Model_store.confidence >= min_confidence
    in
    let severity =
      if not confident then Info
      else if
        Fit_basis.order n.Model_store.cls > Fit_basis.order o.Model_store.cls
      then Regression
      else Improvement
    in
    Some
      {
        routine;
        metric = Some metric;
        severity;
        change =
          Class_change
            {
              old_cls = o.Model_store.cls;
              new_cls = n.Model_store.cls;
              old_confidence = o.Model_store.confidence;
              new_confidence = n.Model_store.confidence;
            };
      }

let slope_finding ~slope_ratio routine metric (o : Model_store.entry)
    (n : Model_store.entry) =
  if o.Model_store.cls <> n.Model_store.cls then None
  else
    match
      ( Fit_basis.leading_coef o.Model_store.cls o.Model_store.coefs,
        Fit_basis.leading_coef n.Model_store.cls n.Model_store.coefs )
    with
    | Some old_coef, Some new_coef when old_coef > 0. && new_coef > 0. ->
      let ratio = new_coef /. old_coef in
      let severity =
        if ratio >= slope_ratio then Some Regression
        else if ratio <= 1. /. slope_ratio then Some Improvement
        else None
      in
      Option.map
        (fun severity ->
          {
            routine;
            metric = Some metric;
            severity;
            change =
              Slope_change
                { cls = o.Model_store.cls; old_coef; new_coef; ratio };
          })
        severity
    | _ -> None

(* The paper's Fig. 4 shape: rms keeps growing while drms saturates. *)
let divergent ~drms ~rms =
  Fit_basis.order rms.Model_store.cls >= Fit_basis.order Fit_basis.Linear
  && Fit_basis.order drms.Model_store.cls
     <= Fit_basis.order Fit_basis.Logarithmic

let divergence_finding ~min_confidence routine entries_of =
  let quad store =
    match
      (store ~routine ~metric:`Drms, store ~routine ~metric:`Rms)
    with
    | Some d, Some r -> Some (d, r)
    | _ -> None
  in
  match (quad (fst entries_of), quad (snd entries_of)) with
  | Some (od, or_), Some (nd, nr) ->
    let was_divergent = divergent ~drms:od ~rms:or_ in
    let now_divergent = divergent ~drms:nd ~rms:nr in
    if was_divergent = now_divergent then None
    else
      let confident =
        List.for_all
          (fun (e : Model_store.entry) ->
            e.Model_store.confidence >= min_confidence)
          [ od; or_; nd; nr ]
      in
      let severity =
        if not confident then Info
        else if now_divergent then Regression
        else Improvement
      in
      Some
        {
          routine;
          metric = None;
          severity;
          change = Divergence_change { was_divergent; now_divergent };
        }
  | _ -> None

let diff ?(min_confidence = 0.7) ?(slope_ratio = 2.0) ?(require_meta = true)
    (old_store : Model_store.t) (new_store : Model_store.t) =
  let meta_check =
    match (old_store.Model_store.meta, new_store.Model_store.meta) with
    | Some o, Some n -> Aprof_core.Run_meta.compatible ~old_run:o ~new_run:n
    | None, _ | _, None ->
      if require_meta then Error "a store carries no run metadata" else Ok ()
  in
  match meta_check with
  | Error e -> Error (Printf.sprintf "stores are not comparable: %s" e)
  | Ok () ->
    let old_entries = old_store.Model_store.entries in
    let new_entries = new_store.Model_store.entries in
    let find entries ~routine ~metric =
      List.find_opt
        (fun (e : Model_store.entry) ->
          e.Model_store.routine = routine && e.Model_store.metric = metric)
        entries
    in
    let compared = ref 0 in
    let pair_findings =
      List.concat_map
        (fun (o : Model_store.entry) ->
          match
            find new_entries ~routine:o.Model_store.routine
              ~metric:o.Model_store.metric
          with
          | None -> []
          | Some n ->
            incr compared;
            let routine = o.Model_store.routine in
            let metric = o.Model_store.metric in
            List.filter_map
              (fun f -> f)
              [
                class_finding ~min_confidence routine metric o n;
                slope_finding ~slope_ratio routine metric o n;
              ])
        old_entries
    in
    let routines_old = List.map (fun e -> e.Model_store.routine) old_entries in
    let routines_new = List.map (fun e -> e.Model_store.routine) new_entries in
    let all_routines =
      List.sort_uniq compare (routines_old @ routines_new)
    in
    let div_findings =
      List.filter_map
        (fun routine ->
          divergence_finding ~min_confidence routine
            (find old_entries, find new_entries))
        all_routines
    in
    let only_in a b =
      List.sort_uniq compare a
      |> List.filter (fun r -> not (List.mem r b))
    in
    let findings =
      List.sort
        (fun a b ->
          compare
            ( a.routine,
              Option.map Profile_io.metric_name a.metric,
              a.severity )
            ( b.routine,
              Option.map Profile_io.metric_name b.metric,
              b.severity ))
        (pair_findings @ div_findings)
    in
    Ok
      {
        findings;
        compared = !compared;
        only_old = only_in routines_old routines_new;
        only_new = only_in routines_new routines_old;
        min_confidence;
        slope_ratio;
      }

let has_regression report =
  List.exists (fun f -> f.severity = Regression) report.findings

let severity_name = function
  | Regression -> "REGRESSION"
  | Improvement -> "improvement"
  | Info -> "info"

let change_line f =
  let where =
    match f.metric with
    | Some m -> Printf.sprintf "%s [%s]" f.routine (Profile_io.metric_name m)
    | None -> f.routine
  in
  match f.change with
  | Class_change { old_cls; new_cls; old_confidence; new_confidence } ->
    Printf.sprintf "%-11s %s: class %s -> %s (confidence %.2f -> %.2f)"
      (severity_name f.severity) where (Fit_basis.name old_cls)
      (Fit_basis.name new_cls) old_confidence new_confidence
  | Slope_change { cls; old_coef; new_coef; ratio } ->
    Printf.sprintf
      "%-11s %s: %s leading coefficient %.3g -> %.3g (%.2fx)"
      (severity_name f.severity) where (Fit_basis.name cls) old_coef new_coef
      ratio
  | Divergence_change { now_divergent; _ } ->
    Printf.sprintf "%-11s %s: rms/drms divergence %s"
      (severity_name f.severity) where
      (if now_divergent then "appeared (drms saturates, rms keeps growing)"
       else "disappeared")

let render report =
  let buf = Buffer.create 512 in
  Printf.bprintf buf
    "cost-model diff: %d routine/metric pairs compared (min confidence %.2f, \
     slope gate %.2fx)\n"
    report.compared report.min_confidence report.slope_ratio;
  List.iter (fun f -> Printf.bprintf buf "  %s\n" (change_line f)) report.findings;
  (match report.only_old with
  | [] -> ()
  | l ->
    Printf.bprintf buf "  only in old store: %s\n" (String.concat ", " l));
  (match report.only_new with
  | [] -> ()
  | l ->
    Printf.bprintf buf "  only in new store: %s\n" (String.concat ", " l));
  let regressions =
    List.length (List.filter (fun f -> f.severity = Regression) report.findings)
  in
  if regressions = 0 && report.findings = [] then
    Buffer.add_string buf "clean: no findings\n"
  else
    Printf.bprintf buf "%d finding(s), %d regression(s)\n"
      (List.length report.findings) regressions;
  Buffer.contents buf

let to_json report =
  let json_escape = Aprof_util.Json.escape and fnum = Aprof_util.Json.number in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf
    "{\n  \"compared\": %d,\n  \"regressions\": %d,\n  \"findings\": [\n"
    report.compared
    (List.length (List.filter (fun f -> f.severity = Regression) report.findings));
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf "    {\"routine\": \"%s\", \"severity\": \"%s\""
        (json_escape f.routine)
        (match f.severity with
        | Regression -> "regression"
        | Improvement -> "improvement"
        | Info -> "info");
      (match f.metric with
      | Some m ->
        Printf.bprintf buf ", \"metric\": \"%s\"" (Profile_io.metric_name m)
      | None -> ());
      (match f.change with
      | Class_change { old_cls; new_cls; old_confidence; new_confidence } ->
        Printf.bprintf buf
          ", \"kind\": \"class\", \"old_class\": \"%s\", \"new_class\": \
           \"%s\", \"old_confidence\": %s, \"new_confidence\": %s"
          (Fit_basis.token old_cls) (Fit_basis.token new_cls)
          (fnum old_confidence) (fnum new_confidence)
      | Slope_change { cls; old_coef; new_coef; ratio } ->
        Printf.bprintf buf
          ", \"kind\": \"slope\", \"class\": \"%s\", \"old_coef\": %s, \
           \"new_coef\": %s, \"ratio\": %s"
          (Fit_basis.token cls) (fnum old_coef) (fnum new_coef) (fnum ratio)
      | Divergence_change { was_divergent; now_divergent } ->
        Printf.bprintf buf
          ", \"kind\": \"divergence\", \"was_divergent\": %b, \
           \"now_divergent\": %b"
          was_divergent now_divergent);
      Buffer.add_string buf "}")
    report.findings;
  Printf.bprintf buf "\n  ],\n  \"only_old\": [%s],\n  \"only_new\": [%s]\n}\n"
    (String.concat ", "
       (List.map (fun r -> Printf.sprintf "\"%s\"" (json_escape r)) report.only_old))
    (String.concat ", "
       (List.map (fun r -> Printf.sprintf "\"%s\"" (json_escape r)) report.only_new));
  Buffer.contents buf
