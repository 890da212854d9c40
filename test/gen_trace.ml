(* QCheck generator of well-formed random traces: per-thread streams with
   balanced call/return over a small address space (to force collisions
   and cross-thread interference), randomly interleaved with switchThread
   events inserted.  This is the input distribution for the differential
   tests of the drms algorithm against the naive oracle. *)

module Event = Aprof_trace.Event
module Vec = Aprof_util.Vec

type params = {
  max_threads : int;
  max_addr : int;
  events_per_thread : int;
  max_depth : int;
  with_kernel : bool;
}

let default_params =
  {
    max_threads = 4;
    max_addr = 10;
    events_per_thread = 120;
    max_depth = 5;
    with_kernel = true;
  }

let gen_thread_stream st p tid n_routines =
  let events = ref [] in
  let depth = ref 0 in
  let emit e = events := e :: !events in
  let addr () = Random.State.int st p.max_addr in
  let routine () = Random.State.int st n_routines in
  let n = 1 + Random.State.int st p.events_per_thread in
  for _ = 1 to n do
    let choice = Random.State.int st (if p.with_kernel then 100 else 80) in
    if choice < 15 && !depth < p.max_depth then begin
      emit (Event.Call { tid; routine = routine () });
      incr depth
    end
    else if choice < 25 && !depth > 0 then begin
      emit (Event.Return { tid });
      decr depth
    end
    else if choice < 55 then emit (Event.Read { tid; addr = addr () })
    else if choice < 75 then emit (Event.Write { tid; addr = addr () })
    else if choice < 80 then
      emit (Event.Block { tid; units = 1 + Random.State.int st 5 })
    else if choice < 95 || not p.with_kernel then begin
      let a = addr () in
      let len = 1 + Random.State.int st (max 1 (p.max_addr - a)) in
      if choice < 88 then emit (Event.Kernel_to_user { tid; addr = a; len })
      else emit (Event.User_to_kernel { tid; addr = a; len })
    end
    else begin
      (* occasional frees exercise the allocator-recycling path *)
      let a = addr () in
      let len = 1 + Random.State.int st (max 1 (p.max_addr - a)) in
      emit (Event.Free { tid; addr = a; len })
    end
  done;
  while !depth > 0 do
    emit (Event.Return { tid });
    decr depth
  done;
  List.rev !events

let gen_trace_with st p =
  let n_threads = 1 + Random.State.int st p.max_threads in
  let n_routines = 1 + Random.State.int st 6 in
  let streams =
    Array.init n_threads (fun tid -> ref (gen_thread_stream st p tid n_routines))
  in
  let trace = Aprof_trace.Trace.create () in
  let current = ref (-1) in
  let remaining = ref n_threads in
  while !remaining > 0 do
    (* Pick a random non-empty stream and consume a random burst. *)
    let nonempty =
      Array.to_list streams
      |> List.mapi (fun i s -> (i, s))
      |> List.filter (fun (_, s) -> !s <> [])
    in
    match nonempty with
    | [] -> remaining := 0
    | _ :: _ ->
      let i, s = List.nth nonempty (Random.State.int st (List.length nonempty)) in
      let burst = 1 + Random.State.int st 8 in
      for _ = 1 to burst do
        match !s with
        | [] -> ()
        | e :: rest ->
          if i <> !current then begin
            Aprof_trace.Trace.push trace (Event.Switch_thread { tid = i });
            current := i
          end;
          Aprof_trace.Trace.push trace e;
          s := rest;
          if rest = [] then decr remaining
      done
  done;
  trace

let gen ?(params = default_params) () : Aprof_trace.Trace.t QCheck2.Gen.t =
  QCheck2.Gen.make_primitive
    ~gen:(fun st -> gen_trace_with st params)
    ~shrink:(fun _ -> Seq.empty)

let print trace =
  Helpers.Trace.to_list trace |> List.map Event.to_string |> String.concat "\n"
