module Event = Aprof_trace.Event
module Trace = Aprof_trace.Trace

let build events =
  let trace = Trace.create () in
  let current = ref (-1) in
  List.iter
    (fun ev ->
      let tid = Event.tid ev in
      if tid <> !current then begin
        Trace.push trace (Event.Switch_thread { tid });
        current := tid
      end;
      Trace.push trace ev)
    events;
  trace

let table names =
  let tbl = Aprof_trace.Routine_table.create () in
  List.iter (fun n -> ignore (Aprof_trace.Routine_table.intern tbl n)) names;
  tbl

let x = 0x1000

let fig1a () =
  let tbl = table [ "f"; "g" ] in
  let f = 0 and g = 1 in
  let events =
    [
      Event.Call { tid = 0; routine = f };
      Event.Read { tid = 0; addr = x };
      Event.Call { tid = 1; routine = g };
      Event.Write { tid = 1; addr = x };
      Event.Return { tid = 1 };
      Event.Read { tid = 0; addr = x };
      Event.Return { tid = 0 };
    ]
  in
  (build events, tbl)

let fig1b () =
  let tbl = table [ "f"; "g"; "h" ] in
  let f = 0 and g = 1 and h = 2 in
  let events =
    [
      Event.Call { tid = 0; routine = f };
      Event.Read { tid = 0; addr = x };
      Event.Call { tid = 1; routine = g };
      Event.Write { tid = 1; addr = x };
      Event.Return { tid = 1 };
      Event.Call { tid = 0; routine = h };
      Event.Read { tid = 0; addr = x };
      Event.Return { tid = 0 };
      Event.Read { tid = 0; addr = x };
      Event.Return { tid = 0 };
    ]
  in
  (build events, tbl)

let ancestor_decrement () =
  let tbl = table [ "parent"; "child" ] in
  let parent = 0 and child = 1 in
  let events =
    [
      Event.Call { tid = 0; routine = parent };
      Event.Read { tid = 0; addr = x };
      (* parent first-reads x *)
      Event.Call { tid = 0; routine = child };
      Event.Read { tid = 0; addr = x };
      (* first access *within* child, but already input of parent: child's
         rms/drms gain 1 and the parent's partial value drops by 1 so the
         suffix-sum invariant keeps parent's total at 1 *)
      Event.Return { tid = 0 };
      Event.Return { tid = 0 };
    ]
  in
  (build events, tbl)

let external_refill ~n =
  let tbl = table [ "main"; "consume" ] in
  let main = 0 and consume = 1 in
  let buf = x in
  let body =
    List.concat_map
      (fun _ ->
        [
          Event.Kernel_to_user { tid = 0; addr = buf; len = 1 };
          Event.Call { tid = 0; routine = consume };
          Event.Read { tid = 0; addr = buf };
          Event.Return { tid = 0 };
        ])
      (List.init n (fun i -> i))
  in
  let events =
    (Event.Call { tid = 0; routine = main } :: body)
    @ [ Event.Return { tid = 0 } ]
  in
  (build events, tbl)
