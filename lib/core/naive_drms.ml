module Event = Aprof_trace.Event
module Vec = Aprof_util.Vec

type frame = {
  rtn : int;
  drms_set : (int, unit) Hashtbl.t; (* L_{r,t} of Figure 7 *)
  rms_set : (int, unit) Hashtbl.t; (* same, but never depleted *)
  mutable drms : int;
  mutable rms : int;
  cost_at_entry : int;
}

type writer = By_thread of int | By_kernel

type thread_state = {
  tid : int;
  stack : frame Vec.t;
  (* Locations accessed by this thread since the latest foreign write:
     determines whether a missing location is an *induced* first-read
     (Definition 2) for attribution purposes. *)
  accessed_since : (int, unit) Hashtbl.t;
}

type t = {
  threads : (int, thread_state) Hashtbl.t;
  last_writer : (int, writer) Hashtbl.t;
  mutable costs : Cost_model.Counter.t;
  mutable profile : Profile.t;
  mutable finished : bool;
}

let create () =
  {
    threads = Hashtbl.create 8;
    last_writer = Hashtbl.create 1024;
    costs = Cost_model.Counter.create ();
    profile = Profile.create ();
    finished = false;
  }

let thread_state t tid =
  match Hashtbl.find_opt t.threads tid with
  | Some st -> st
  | None ->
    let st = { tid; stack = Vec.create (); accessed_since = Hashtbl.create 256 } in
    Hashtbl.add t.threads tid st;
    st

let getcost t tid = Cost_model.Counter.cost t.costs tid

let on_call t tid rtn =
  let st = thread_state t tid in
  Vec.push st.stack
    {
      rtn;
      drms_set = Hashtbl.create 16;
      rms_set = Hashtbl.create 16;
      drms = 0;
      rms = 0;
      cost_at_entry = getcost t tid;
    }

let on_return t tid =
  let st = thread_state t tid in
  if Vec.is_empty st.stack then
    invalid_arg "Naive_drms: return with empty shadow stack";
  let fr = Vec.pop st.stack in
  Profile.record_activation t.profile ~tid ~routine:fr.rtn ~rms:fr.rms
    ~drms:fr.drms ~cost:(getcost t tid - fr.cost_at_entry)

(* A location enters every pending activation's sets on any access. *)
let note_access st addr =
  Vec.iter
    (fun fr ->
      Hashtbl.replace fr.drms_set addr ();
      Hashtbl.replace fr.rms_set addr ())
    st.stack;
  Hashtbl.replace st.accessed_since addr ()

let on_read t tid addr =
  let st = thread_state t tid in
  if not (Vec.is_empty st.stack) then begin
    let top = Vec.top st.stack in
    (* Attribution: induced iff some write happened and this thread has
       not accessed the location since the latest foreign write. *)
    (if not (Hashtbl.mem top.drms_set addr) then begin
       let induced =
         (not (Hashtbl.mem st.accessed_since addr))
         &&
         match Hashtbl.find_opt t.last_writer addr with
         | Some (By_thread t') -> t' <> tid
         | Some By_kernel -> true
         | None -> false
       in
       let external_ =
         induced
         && match Hashtbl.find_opt t.last_writer addr with
            | Some By_kernel -> true
            | Some (By_thread _) | None -> false
       in
       if induced then
         Profile.record_ops t.profile ~tid ~routine:top.rtn ~plain:0
           ~induced_thread:(if external_ then 0 else 1)
           ~induced_external:(if external_ then 1 else 0)
       else
         Profile.record_ops t.profile ~tid ~routine:top.rtn ~plain:1
           ~induced_thread:0 ~induced_external:0
     end);
    Vec.iter
      (fun fr ->
        if not (Hashtbl.mem fr.drms_set addr) then fr.drms <- fr.drms + 1;
        if not (Hashtbl.mem fr.rms_set addr) then fr.rms <- fr.rms + 1)
      st.stack
  end;
  note_access st addr

let remove_from_others t ~writer addr =
  Hashtbl.iter
    (fun tid st ->
      let foreign =
        match writer with
        | By_thread w -> w <> tid
        | By_kernel -> true
      in
      if foreign then begin
        Vec.iter (fun fr -> Hashtbl.remove fr.drms_set addr) st.stack;
        Hashtbl.remove st.accessed_since addr
      end)
    t.threads

let on_write t tid addr =
  let st = thread_state t tid in
  note_access st addr;
  Hashtbl.replace t.last_writer addr (By_thread tid);
  remove_from_others t ~writer:(By_thread tid) addr

let on_kernel_to_user t addr len =
  for a = addr to addr + len - 1 do
    Hashtbl.replace t.last_writer a By_kernel;
    remove_from_others t ~writer:By_kernel a
  done

(* The oracle's private per-event core: it pattern-matches the unpacked
   variant, so it stays a direct transcription of Figure 7.  Its speed
   does not matter. *)
let step t e =
  match e with
  | Event.Call { tid; routine } -> on_call t tid routine
  | Event.Return { tid } -> on_return t tid
  | Event.Read { tid; addr } -> on_read t tid addr
  | Event.Write { tid; addr } -> on_write t tid addr
  | Event.Kernel_to_user { addr; len; _ } -> on_kernel_to_user t addr len
  | Event.User_to_kernel { tid; addr; len } ->
    for a = addr to addr + len - 1 do
      on_read t tid a
    done
  | Event.Free { addr; len; _ } ->
    for a = addr to addr + len - 1 do
      Hashtbl.remove t.last_writer a;
      Hashtbl.iter
        (fun _ st ->
          Vec.iter
            (fun fr ->
              Hashtbl.remove fr.drms_set a;
              Hashtbl.remove fr.rms_set a)
            st.stack;
          Hashtbl.remove st.accessed_since a)
        t.threads
    done
  | Event.Block _ | Event.Acquire _ | Event.Release _ | Event.Alloc _
  | Event.Thread_start _ | Event.Thread_exit _ | Event.Switch_thread _ ->
    ()

let on_batch t b =
  if t.finished then invalid_arg "Naive_drms: event after finish";
  let module B = Event.Batch in
  let tags = B.tags b and tids = B.tids b and args = B.args b in
  for i = 0 to B.length b - 1 do
    Cost_model.Counter.on_raw t.costs ~tag:tags.(i) ~tid:tids.(i)
      ~arg:args.(i);
    step t (B.get b i)
  done

let profile t = t.profile

let finish t =
  if not t.finished then begin
    t.finished <- true;
    Hashtbl.iter
      (fun tid st ->
        for i = Vec.length st.stack - 1 downto 0 do
          let fr = Vec.get st.stack i in
          Profile.record_activation t.profile ~tid ~routine:fr.rtn ~rms:fr.rms
            ~drms:fr.drms ~cost:(getcost t tid - fr.cost_at_entry)
        done;
        Vec.clear st.stack)
      t.threads
  end;
  t.profile

let reset t =
  Hashtbl.reset t.threads;
  Hashtbl.reset t.last_writer;
  t.costs <- Cost_model.Counter.create ();
  t.profile <- Profile.create ();
  t.finished <- false

let merge_into ~into src = Profile.merge_into ~into:(finish into) (finish src)

let current_drms t ~tid =
  match Hashtbl.find_opt t.threads tid with
  | None -> []
  | Some st -> List.map (fun fr -> fr.drms) (Vec.to_list st.stack)
