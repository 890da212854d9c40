module Event = Aprof_trace.Event
module Shadow = Aprof_shadow.Shadow_memory
module Vec = Aprof_util.Vec

(* Every field is mutable: popped frames are recycled through
   {!Vec.spare} on the next call, so a push after warm-up allocates
   nothing. *)
type frame = {
  mutable rtn : int;
  mutable ts : int;
  mutable rms : int;
  mutable cost_at_entry : int;
  mutable ops : Profile.ops_handle;
}

type thread_state = {
  mutable tid : int; (* rewritten when {!reset} recycles the state *)
  ts_local : Shadow.t;
  stack : frame Vec.t;
  (* Executed basic blocks of this thread (the getCost() metric); lives
     here so the cost bump rides the thread-state lookup the dispatcher
     performs anyway. *)
  mutable cost : int;
}

type t = {
  mutable count : int;
  threads : (int, thread_state) Hashtbl.t;
  (* Thread states {!reset} took out of [threads], zero-filled, for the
     next trace's threads to reuse. *)
  mutable spare : thread_state list;
  (* One-entry cache over [threads]: events arrive in scheduler slices of
     the same thread, so the per-event lookup is usually a repeat of the
     previous one.  [last_tid] starts at [min_int] — no real tid — so the
     [None] state is never consulted. *)
  mutable last_tid : int;
  mutable last_state : thread_state option;
  mutable profile : Profile.t;
  mutable finished : bool;
}

let create () =
  {
    count = 0;
    threads = Hashtbl.create 8;
    spare = [];
    last_tid = min_int;
    last_state = None;
    profile = Profile.create ();
    finished = false;
  }

(* [Hashtbl.find] rather than [find_opt]: this lookup runs once per
   event, and the hot path must not box a [Some] each time. *)
let thread_state_slow t tid =
  let st =
    match Hashtbl.find t.threads tid with
    | st -> st
    | exception Not_found ->
      let st =
        match t.spare with
        | st :: rest ->
          t.spare <- rest;
          st.tid <- tid;
          st
        | [] ->
          { tid; ts_local = Shadow.create (); stack = Vec.create (); cost = 0 }
      in
      Hashtbl.add t.threads tid st;
      st
  in
  t.last_tid <- tid;
  t.last_state <- Some st;
  st

let thread_state t tid =
  if tid = t.last_tid then
    match t.last_state with Some st -> st | None -> assert false
  else thread_state_slow t tid

(* As in {!Drms_profiler.reset}: zero-filled shadows, recycled thread
   states whose popped frames name no finished profile's cells. *)
let recycle_thread st =
  Shadow.reset st.ts_local;
  st.cost <- 0;
  Vec.clear st.stack;
  while Vec.has_spare st.stack do
    (Vec.spare st.stack).ops <- Profile.no_handle;
    Vec.extend st.stack
  done;
  Vec.clear st.stack

let reset t =
  Hashtbl.iter
    (fun _ st ->
      recycle_thread st;
      t.spare <- st :: t.spare)
    t.threads;
  Hashtbl.clear t.threads;
  t.last_tid <- min_int;
  t.last_state <- None;
  t.count <- 0;
  t.finished <- false;
  t.profile <- Profile.create ()

let deepest_ancestor stack ts =
  let lo = ref 0 and hi = ref (Vec.length stack - 1) and best = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if (Vec.get stack mid).ts <= ts then begin
      best := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  !best

let on_read t st addr =
  (* One chunk resolution covers both halves of the first-access scheme:
     read the old thread-local stamp, store the new one. *)
  let ts_l = Shadow.exchange st.ts_local addr t.count in
  if not (Vec.is_empty st.stack) then begin
    let top = Vec.top st.stack in
    if ts_l < top.ts then begin
      top.rms <- top.rms + 1;
      Profile.bump_plain top.ops;
      if ts_l <> 0 then begin
        let i = deepest_ancestor st.stack ts_l in
        if i >= 0 then begin
          let anc = Vec.get st.stack i in
          anc.rms <- anc.rms - 1
        end
      end
    end
  end

let on_call t st routine =
  t.count <- t.count + 1;
  let ops = Profile.ops_handle t.profile ~tid:st.tid ~routine in
  let stack = st.stack in
  if Vec.has_spare stack then begin
    let fr = Vec.spare stack in
    fr.rtn <- routine;
    fr.ts <- t.count;
    fr.rms <- 0;
    fr.cost_at_entry <- st.cost;
    fr.ops <- ops;
    Vec.extend stack
  end
  else
    Vec.push stack
      { rtn = routine; ts = t.count; rms = 0; cost_at_entry = st.cost; ops }

let on_return st =
  if Vec.is_empty st.stack then
    invalid_arg "Rms_profiler: return with empty shadow stack";
  let fr = Vec.pop st.stack in
  (* The frame carries the profile cell it was entered with. *)
  Profile.record_into fr.ops ~rms:fr.rms ~drms:fr.rms
    ~cost:(st.cost - fr.cost_at_entry);
  if not (Vec.is_empty st.stack) then begin
    let parent = Vec.top st.stack in
    parent.rms <- parent.rms + fr.rms
  end

let on_write t st addr = Shadow.set st.ts_local addr t.count

let on_user_to_kernel t st addr len =
  for a = addr to addr + len - 1 do
    on_read t st a
  done

let on_free t addr len =
  Hashtbl.iter (fun _ st -> Shadow.set_range st.ts_local ~addr ~len 0) t.threads

(* Dispatch on the packed fields; tag literals are {!Event.Batch}'s.
   Cost bumps (the basic-block model of {!Cost_model}) happen here,
   riding the thread-state lookup the handler needs anyway: calls, reads
   and writes count 1, a [Block] counts its units. *)
let on_raw t ~tag ~tid ~arg ~len =
  if t.finished then invalid_arg "Rms_profiler: event after finish";
  match tag with
  | 1 ->
    let st = thread_state t tid in
    st.cost <- st.cost + 1;
    on_call t st arg
  | 2 -> on_return (thread_state t tid)
  | 3 ->
    let st = thread_state t tid in
    st.cost <- st.cost + 1;
    on_read t st arg
  | 4 ->
    let st = thread_state t tid in
    st.cost <- st.cost + 1;
    on_write t st arg
  | 5 ->
    let st = thread_state t tid in
    st.cost <- st.cost + arg
  | 6 -> on_user_to_kernel t (thread_state t tid) arg len
  | 11 -> on_free t arg len
  | 14 -> t.count <- t.count + 1
  | _ -> ()

(* Direct loop over the field arrays rather than [Batch.iter]: the
   closure indirection per event is measurable at this path's speed.
   Indices below [length b] are in bounds for all four arrays. *)
let on_batch t b =
  let tags = Event.Batch.tags b and tids = Event.Batch.tids b in
  let args = Event.Batch.args b and lens = Event.Batch.lens b in
  for i = 0 to Event.Batch.length b - 1 do
    on_raw t ~tag:(Array.unsafe_get tags i) ~tid:(Array.unsafe_get tids i)
      ~arg:(Array.unsafe_get args i) ~len:(Array.unsafe_get lens i)
  done

let profile t = t.profile

let finish t =
  if not t.finished then begin
    t.finished <- true;
    Hashtbl.iter
      (fun _ st ->
        let suffix = ref 0 in
        for i = Vec.length st.stack - 1 downto 0 do
          let fr = Vec.get st.stack i in
          suffix := !suffix + fr.rms;
          Profile.record_into fr.ops ~rms:!suffix ~drms:!suffix
            ~cost:(st.cost - fr.cost_at_entry)
        done;
        Vec.clear st.stack)
      t.threads
  end;
  t.profile

let merge_into ~into src = Profile.merge_into ~into:(finish into) (finish src)

let space_words t =
  let frame_words = 4 in
  let acc = ref 0 in
  Hashtbl.iter
    (fun _ st ->
      acc := !acc + Shadow.space_words st.ts_local
             + (frame_words * Vec.length st.stack))
    t.threads;
  List.iter (fun st -> acc := !acc + Shadow.space_words st.ts_local) t.spare;
  !acc
