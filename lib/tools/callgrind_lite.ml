module Event = Aprof_trace.Event
module Vec = Aprof_util.Vec

type routine_costs = {
  routine : int;
  calls : int;
  exclusive : int;
  inclusive : int;
}

type edge_costs = {
  caller : int;
  callee : int;
  count : int;
  edge_inclusive : int;
}

type frame = {
  rtn : int;
  caller : int;
  mutable own : int; (* cost charged while this frame was on top *)
  mutable children : int; (* inclusive cost of completed children *)
}

type racc = { mutable calls : int; mutable excl : int; mutable incl : int }
type eacc = { mutable cnt : int; mutable einc : int }

type t = {
  stacks : (int, frame Vec.t) Hashtbl.t;
  by_routine : (int, racc) Hashtbl.t;
  by_edge : (int * int, eacc) Hashtbl.t;
}

type state = t

let name = "callgrind"

let create () =
  {
    stacks = Hashtbl.create 8;
    by_routine = Hashtbl.create 64;
    by_edge = Hashtbl.create 64;
  }

let stack t tid =
  match Hashtbl.find_opt t.stacks tid with
  | Some s -> s
  | None ->
    let s = Vec.create () in
    Hashtbl.add t.stacks tid s;
    s

let charge t tid units =
  let s = stack t tid in
  if not (Vec.is_empty s) then begin
    let top = Vec.top s in
    top.own <- top.own + units
  end

let racc t rtn =
  match Hashtbl.find_opt t.by_routine rtn with
  | Some r -> r
  | None ->
    let r = { calls = 0; excl = 0; incl = 0 } in
    Hashtbl.add t.by_routine rtn r;
    r

let eacc t key =
  match Hashtbl.find_opt t.by_edge key with
  | Some e -> e
  | None ->
    let e = { cnt = 0; einc = 0 } in
    Hashtbl.add t.by_edge key e;
    e

(* Dispatch on the packed fields; tag literals are {!Event.Batch}'s:
   1 Call, 2 Return, 3 Read, 4 Write, 5 Block.  The Call arm charges the
   call's dispatch cost after pushing, so it lands on the callee. *)
let on_raw t ~tag ~tid ~arg =
  match tag with
  | 1 ->
    let s = stack t tid in
    let caller = if Vec.is_empty s then -1 else (Vec.top s).rtn in
    Vec.push s { rtn = arg; caller; own = 0; children = 0 };
    let r = racc t arg in
    r.calls <- r.calls + 1;
    charge t tid 1
  | 2 ->
    let s = stack t tid in
    if Vec.is_empty s then invalid_arg "Callgrind_lite: return without call";
    let fr = Vec.pop s in
    let inclusive = fr.own + fr.children in
    let r = racc t fr.rtn in
    r.excl <- r.excl + fr.own;
    r.incl <- r.incl + inclusive;
    let edge = eacc t (fr.caller, fr.rtn) in
    edge.cnt <- edge.cnt + 1;
    edge.einc <- edge.einc + inclusive;
    if not (Vec.is_empty s) then begin
      let parent = Vec.top s in
      parent.children <- parent.children + inclusive
    end
  | 3 | 4 -> charge t tid 1
  | 5 -> charge t tid arg
  | _ -> ()

let on_batch t b =
  Event.Batch.iter (fun tag tid arg _len -> on_raw t ~tag ~tid ~arg) b

let routine_costs t =
  Hashtbl.fold
    (fun routine r acc ->
      { routine; calls = r.calls; exclusive = r.excl; inclusive = r.incl } :: acc)
    t.by_routine []
  |> List.sort (fun a b -> compare b.inclusive a.inclusive)

let edges t =
  Hashtbl.fold
    (fun (caller, callee) e acc ->
      { caller; callee; count = e.cnt; edge_inclusive = e.einc } :: acc)
    t.by_edge []
  |> List.sort (fun a b -> compare b.edge_inclusive a.edge_inclusive)

let space_words t =
  let stack_words =
    Hashtbl.fold (fun _ s acc -> acc + (4 * Vec.length s)) t.stacks 0
  in
  stack_words + (4 * Hashtbl.length t.by_routine)
  + (4 * Hashtbl.length t.by_edge)

let merge ~into src =
  Hashtbl.iter
    (fun rtn (r : racc) ->
      let d = racc into rtn in
      d.calls <- d.calls + r.calls;
      d.excl <- d.excl + r.excl;
      d.incl <- d.incl + r.incl)
    src.by_routine;
  Hashtbl.iter
    (fun key (e : eacc) ->
      let d = eacc into key in
      d.cnt <- d.cnt + e.cnt;
      d.einc <- d.einc + e.einc)
    src.by_edge;
  (* Pending frames carry over only when the two halves saw disjoint
     threads — the invariant thread-sharding guarantees. *)
  Hashtbl.iter
    (fun tid s ->
      if not (Vec.is_empty s) then
        match Hashtbl.find_opt into.stacks tid with
        | Some s' when not (Vec.is_empty s') ->
          invalid_arg "Callgrind_lite.merge: thread seen by both halves"
        | _ -> Hashtbl.replace into.stacks tid s)
    src.stacks

let summary t =
  Printf.sprintf "callgrind: %d routines, %d edges"
    (Hashtbl.length t.by_routine)
    (Hashtbl.length t.by_edge)

(* Calls, returns and cost charges are all keyed by the event's own
   thread; nothing crosses threads, so nothing is broadcast. *)
let sharding =
  Tool.By_thread { broadcast = 0; set_owner = (fun _ _ -> ()); merge }
