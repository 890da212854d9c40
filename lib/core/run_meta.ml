type t = {
  workload : string;
  seed : int;
  scale : int;
  threads : int;
  scheduler : string;
}

module L = Aprof_util.Line_record

let write w t =
  L.record w "meta";
  L.add_text w t.workload;
  List.iter (L.add_int w) [ t.seed; t.scale; t.threads ];
  L.add_last w t.scheduler

let read f =
  let workload = L.text f in
  let seed = L.int f in
  let scale = L.int f in
  let threads = L.int f in
  { workload; seed; scale; threads; scheduler = L.last f }

let compatible ~old_run ~new_run =
  let mismatch what a b = Error (Printf.sprintf "%s differs (%s vs %s)" what a b) in
  if old_run.workload <> new_run.workload then
    mismatch "workload" old_run.workload new_run.workload
  else if old_run.scale <> new_run.scale then
    mismatch "scale" (string_of_int old_run.scale) (string_of_int new_run.scale)
  else if old_run.threads <> new_run.threads then
    mismatch "threads" (string_of_int old_run.threads)
      (string_of_int new_run.threads)
  else if old_run.scheduler <> new_run.scheduler then
    mismatch "scheduler" old_run.scheduler new_run.scheduler
  else Ok ()

let to_string t =
  Printf.sprintf "%s scale=%d threads=%d scheduler=%s seed=%d" t.workload
    t.scale t.threads t.scheduler t.seed
