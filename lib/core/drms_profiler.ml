module Event = Aprof_trace.Event
module Shadow = Aprof_shadow.Shadow_memory
module Vec = Aprof_util.Vec

type induction_mode = [ `Both | `External_only | `Thread_only | `None ]

(* Every field is mutable: popped frames are recycled through
   {!Vec.spare} on the next call, so a push after warm-up allocates
   nothing. *)
type frame = {
  mutable rtn : int;
  mutable ts : int; (* invocation timestamp (renumbering rewrites it) *)
  mutable drms : int; (* partial drms (Invariant 2 suffix-sum scheme) *)
  mutable rms : int; (* partial rms, maintained with the same scheme *)
  mutable cost_at_entry : int;
  mutable ops : Profile.ops_handle; (* first-read op counters of (rtn, tid) *)
  mutable context : Cct.node; (* calling-context node, Cct.root when untracked *)
}

type thread_state = {
  mutable tid : int; (* rewritten when {!reset} recycles the state *)
  ts_local : Shadow.t; (* ts_t[l]: latest access (read or write) by t *)
  stack : frame Vec.t;
  (* Executed basic blocks of this thread (the getCost() metric).  Held
     here rather than in a separate counter table: the dispatchers
     already resolve the thread state per event, so the cost bump rides
     on the same lookup. *)
  mutable cost : int;
}

type t = {
  overflow_limit : int;
  mode : induction_mode;
  ancestor_search : [ `Binary | `Linear ];
  mutable count : int;
  (* Write timestamps.  [`Both] keeps a single shadow [wts_max], as in
     the paper: write stamps are non-decreasing, so the latest writer
     holds the largest stamp, and the cell packs [(stamp lsl 1) lor
     kernel_bit] so the induced-read attribution (kernel vs thread
     writer) survives in the same word — one shadow lookup per read.
     The restricted induction modes (Figure 6b) must test against
     kernel-only or thread-only stamps, which the latest-writer shadow
     cannot recover, so they split the stamps by writer kind into
     [wts_thread] and [wts_kernel].  [`None] (plain aprof) stamps
     nothing: no read is ever induced, so every read follows aprof's
     latest-access rule and the drms equals the rms. *)
  wts_max : Shadow.t;
  wts_thread : Shadow.t;
  wts_kernel : Shadow.t;
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
  mutable contexts : (Cct.t * Profile.t) option;
  mutable renumberings : int;
  mutable finished : bool;
  (* Shard-owner predicate for parallel replay.  [None] (the default)
     is the sequential profiler.  With [Some owns] the instance expects
     the shard-filtered substream — every event of its own threads plus
     every broadcast-tag event ({!shard_broadcast}) — and processes
     foreign events for their global effects only: a foreign call or
     thread switch ticks the counter, a foreign write stamps [wts], and
     kernel fills / frees run in full.  Because every event that ticks
     the counter is broadcast, the instance's clock assigns each of its
     own accesses a stamp order-isomorphic to the sequential clock's,
     which makes the sharded profile exactly the sequential one
     restricted to the owned threads (see DESIGN.md 4c). *)
  mutable owner : (int -> bool) option;
}

let create ?(overflow_limit = max_int - 1) ?(mode = `Both)
    ?(track_contexts = false) ?(ancestor_search = `Binary) () =
  if overflow_limit < 8 then
    invalid_arg "Drms_profiler.create: overflow_limit too small";
  {
    overflow_limit;
    mode;
    ancestor_search;
    count = 0;
    wts_max = Shadow.create ();
    wts_thread = Shadow.create ();
    wts_kernel = Shadow.create ();
    threads = Hashtbl.create 8;
    spare = [];
    last_tid = min_int;
    last_state = None;
    profile = Profile.create ();
    contexts =
      (if track_contexts then Some (Cct.create (), Profile.create ()) else None);
    renumberings = 0;
    finished = false;
    owner = None;
  }

let set_owner t owns =
  if t.count > 0 || Hashtbl.length t.threads > 0 then
    invalid_arg "Drms_profiler.set_owner: profiler already fed";
  t.owner <- Some owns

(* The tags a sharded instance must see from every thread: everything
   that ticks the global counter (Call, Switch_thread, Kernel_to_user)
   plus everything that mutates the global write-timestamp shadow
   (Write, Kernel_to_user, Free). *)
let shard_broadcast =
  let module B = Event.Batch in
  (1 lsl B.tag_call) lor (1 lsl B.tag_write)
  lor (1 lsl B.tag_kernel_to_user)
  lor (1 lsl B.tag_free)
  lor (1 lsl B.tag_switch_thread)

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

(* A thread state as {!thread_state_slow} would create it, keeping its
   storage.  Popped frames beyond the stack's length still name the
   finished profile's cells and context nodes: point them at nothing, so
   a pooled profiler keeps no finished profile reachable. *)
let recycle_thread st =
  Shadow.reset st.ts_local;
  st.cost <- 0;
  Vec.clear st.stack;
  while Vec.has_spare st.stack do
    let fr = Vec.spare st.stack in
    fr.ops <- Profile.no_handle;
    fr.context <- Cct.root;
    Vec.extend st.stack
  done;
  Vec.clear st.stack

let reset t =
  Shadow.reset t.wts_max;
  Shadow.reset t.wts_thread;
  Shadow.reset t.wts_kernel;
  Hashtbl.iter
    (fun _ st ->
      recycle_thread st;
      t.spare <- st :: t.spare)
    t.threads;
  Hashtbl.clear t.threads;
  t.last_tid <- min_int;
  t.last_state <- None;
  t.count <- 0;
  t.renumberings <- 0;
  t.finished <- false;
  t.owner <- None;
  t.profile <- Profile.create ();
  t.contexts <-
    Option.map (fun _ -> (Cct.create (), Profile.create ())) t.contexts

(* --- Counter-overflow renumbering ------------------------------------

   Gather every live timestamp (global [wts], each thread's [ts_t], every
   shadow-stack [ts] field), rank them, and rewrite each as its rank.
   Ranks start at 1 so that 0 keeps meaning "never accessed"; the relative
   order of all timestamps — hence every comparison the algorithm ever
   performs — is preserved, and [count] restarts from the highest rank. *)
let renumber t =
  let live : (int, unit) Hashtbl.t = Hashtbl.create 4096 in
  let note v = if v <> 0 then Hashtbl.replace live v () in
  (* [wts_max] packs the stamp above a writer bit; the others are raw. *)
  Shadow.iter_set (fun _ v -> note (v lsr 1)) t.wts_max;
  Shadow.iter_set (fun _ v -> note v) t.wts_thread;
  Shadow.iter_set (fun _ v -> note v) t.wts_kernel;
  Hashtbl.iter
    (fun _ st ->
      Shadow.iter_set (fun _ v -> note v) st.ts_local;
      Vec.iter (fun fr -> note fr.ts) st.stack)
    t.threads;
  let sorted = Hashtbl.fold (fun v () acc -> v :: acc) live [] in
  let sorted = Array.of_list sorted in
  Array.sort compare sorted;
  let rank : (int, int) Hashtbl.t = Hashtbl.create (Array.length sorted) in
  Array.iteri (fun i v -> Hashtbl.add rank v (i + 1)) sorted;
  let remap v = if v = 0 then 0 else Hashtbl.find rank v in
  Shadow.map_in_place
    (fun v -> if v = 0 then 0 else (Hashtbl.find rank (v lsr 1) lsl 1) lor (v land 1))
    t.wts_max;
  Shadow.map_in_place remap t.wts_thread;
  Shadow.map_in_place remap t.wts_kernel;
  Hashtbl.iter
    (fun _ st ->
      Shadow.map_in_place remap st.ts_local;
      Vec.iter (fun fr -> fr.ts <- remap fr.ts) st.stack)
    t.threads;
  t.count <- Array.length sorted;
  t.renumberings <- t.renumberings + 1

let tick t =
  if t.count >= t.overflow_limit then renumber t;
  t.count <- t.count + 1

(* Deepest ancestor whose invocation timestamp is <= [ts]: stack [ts]
   fields increase with depth, so binary search gives O(log depth).  The
   linear walk exists only for the ablation benchmark. *)
let deepest_ancestor search stack ts =
  match search with
  | `Binary ->
    let n = Vec.length stack in
    let lo = ref 0 and hi = ref (n - 1) and best = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if (Vec.get stack mid).ts <= ts then begin
        best := mid;
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    !best
  | `Linear ->
    let rec down i =
      if i < 0 then -1
      else if (Vec.get stack i).ts <= ts then i
      else down (i - 1)
    in
    down (Vec.length stack - 1)

let on_call t st rtn =
  tick t;
  let context =
    match t.contexts with
    | None -> Cct.root
    | Some (tree, _) ->
      let parent =
        if Vec.is_empty st.stack then Cct.root else (Vec.top st.stack).context
      in
      Cct.child tree parent rtn
  in
  let ops = Profile.ops_handle t.profile ~tid:st.tid ~routine:rtn in
  let stack = st.stack in
  if Vec.has_spare stack then begin
    let fr = Vec.spare stack in
    fr.rtn <- rtn;
    fr.ts <- t.count;
    fr.drms <- 0;
    fr.rms <- 0;
    fr.cost_at_entry <- st.cost;
    fr.ops <- ops;
    fr.context <- context;
    Vec.extend stack
  end
  else
    Vec.push stack
      {
        rtn;
        ts = t.count;
        drms = 0;
        rms = 0;
        cost_at_entry = st.cost;
        ops;
        context;
      }

let collect t st fr ~drms ~rms ~cost =
  (* The frame carries the profile cell it was entered with. *)
  Profile.record_into fr.ops ~rms ~drms ~cost;
  match t.contexts with
  | None -> ()
  | Some (_, cprofile) ->
    Profile.record_activation cprofile ~tid:st.tid ~routine:fr.context ~rms
      ~drms ~cost

let on_return t st =
  if Vec.is_empty st.stack then
    invalid_arg "Drms_profiler: return with empty shadow stack";
  let fr = Vec.pop st.stack in
  (* At the top of the stack, partial drms = full drms (Invariant 2). *)
  collect t st fr ~drms:fr.drms ~rms:fr.rms ~cost:(st.cost - fr.cost_at_entry);
  if not (Vec.is_empty st.stack) then begin
    let parent = Vec.top st.stack in
    parent.drms <- parent.drms + fr.drms;
    parent.rms <- parent.rms + fr.rms
  end

(* Plain aprof's read ([`None]): the first-access scheme of aprof
   (lines 4-10 of Figure 8) alone.  With no write stamps no read is
   induced, so the drms partials move with the rms ones. *)
let latest_access_read t st ts_l =
  let top = Vec.top st.stack in
  if ts_l < top.ts then begin
    top.rms <- top.rms + 1;
    top.drms <- top.drms + 1;
    Profile.bump_plain top.ops;
    if ts_l <> 0 then begin
      let i = deepest_ancestor t.ancestor_search st.stack ts_l in
      if i >= 0 then begin
        let anc = Vec.get st.stack i in
        anc.rms <- anc.rms - 1;
        anc.drms <- anc.drms - 1
      end
    end
  end

let on_read t st addr =
  (* One chunk resolution covers both halves of the first-access scheme:
     read the old thread-local stamp, store the new one. *)
  let ts_l = Shadow.exchange st.ts_local addr t.count in
  if Vec.is_empty st.stack then ()
  else if t.mode = `None then latest_access_read t st ts_l
  else begin
    (* The write timestamp the current mode tests against (line 1 of
       Figure 8), packed as [(stamp lsl 1) lor kernel_bit].  Full mode
       reads it straight from [wts_max]; the restricted modes rebuild
       the same packing from the split shadows. *)
    let c =
      if t.mode = `Both then Shadow.get t.wts_max addr
      else begin
        let wt = Shadow.get t.wts_thread addr in
        let wk = Shadow.get t.wts_kernel addr in
        let kbit = if wk > wt then 1 else 0 in
        match t.mode with
        | `External_only -> (wk lsl 1) lor kbit
        | _ -> (wt lsl 1) lor kbit (* `Thread_only *)
      end
    in
    let w = c lsr 1 in
    let top = Vec.top st.stack in
    (* Both metrics run the first-access scheme of aprof (lines 4-10 of
       Figure 8) on the partial counters; the test and the ancestor
       search depend only on [ts_l], so one fused pass serves rms and
       drms — the search is the expensive part, and this code runs for
       every read.  The drms side diverges only on an induced first-read
       (ts_l < w), which charges the top frame without an ancestor
       decrement: the paper's scheme treats the external write as making
       the location new again, wherever it was read before. *)
    if ts_l < top.ts then begin
      let anc_i =
        if ts_l = 0 then -1
        else deepest_ancestor t.ancestor_search st.stack ts_l
      in
      (* rms side: the plain first-access rule, blind to writes. *)
      top.rms <- top.rms + 1;
      if anc_i >= 0 then begin
        let anc = Vec.get st.stack anc_i in
        anc.rms <- anc.rms - 1
      end;
      if ts_l < w then begin
        (* Induced first-read.  Attribute to the latest writer: the
           kernel bit is set iff the kernel stamp is strictly above the
           thread stamp (a thread writing after a kernelToUser in the
           same tick window reuses the same count, so ties resolve to
           the thread). *)
        top.drms <- top.drms + 1;
        if c land 1 = 1 then Profile.bump_induced_external top.ops
        else Profile.bump_induced_thread top.ops
      end
      else begin
        Profile.bump_plain top.ops;
        top.drms <- top.drms + 1;
        if anc_i >= 0 then begin
          let anc = Vec.get st.stack anc_i in
          anc.drms <- anc.drms - 1
        end
      end
    end
    else if ts_l < w then begin
      (* Seen this activation, but externally rewritten since: induced
         for drms, a no-op for rms. *)
      top.drms <- top.drms + 1;
      if c land 1 = 1 then Profile.bump_induced_external top.ops
      else Profile.bump_induced_thread top.ops
    end
  end

(* Stamp a thread's write into [wts].  This is all a write by a thread
   the instance does not own does (sharded replay): that thread's
   [ts_local] feeds only its own reads, which its owning shard
   replays. *)
let[@inline] stamp_write t addr =
  match t.mode with
  | `Both -> Shadow.set t.wts_max addr (t.count lsl 1)
  | `External_only | `Thread_only -> Shadow.set t.wts_thread addr t.count
  | `None -> ()

let on_write t st addr =
  Shadow.set st.ts_local addr t.count;
  stamp_write t addr

let on_kernel_to_user t addr len =
  (* Figure 9: bump the counter once, then stamp the buffer with a global
     write timestamp larger than any thread-local one. *)
  tick t;
  match t.mode with
  | `Both -> Shadow.set_range t.wts_max ~addr ~len ((t.count lsl 1) lor 1)
  | `External_only | `Thread_only ->
    Shadow.set_range t.wts_kernel ~addr ~len t.count
  | `None -> ()

let on_user_to_kernel t st addr len =
  (* The kernel reads the buffer on the thread's behalf: treat each
     location as a read by the thread, as if the call were a subroutine. *)
  for a = addr to addr + len - 1 do
    on_read t st a
  done

(* A freed block may be recycled by the allocator: drop every stamp so
   reads of a later allocation at the same addresses are plain
   first-reads again, not stale re-reads. *)
let on_free t addr len =
  (match t.mode with
  | `Both -> Shadow.set_range t.wts_max ~addr ~len 0
  | `External_only | `Thread_only ->
    Shadow.set_range t.wts_thread ~addr ~len 0;
    Shadow.set_range t.wts_kernel ~addr ~len 0
  | `None -> ());
  Hashtbl.iter (fun _ st -> Shadow.set_range st.ts_local ~addr ~len 0) t.threads

(* Dispatch on the int tag (an OCaml integer match compiles to a jump
   table) and hand the raw fields to the handlers, constructing no
   variant.  Tag literals are {!Event.Batch}'s: 1 Call, 2 Return, 3 Read,
   4 Write, 6 U2k, 7 K2u, 5 Block, 11 Free, 14 Switch_thread.  Cost bumps
   (the basic-block model of {!Cost_model}) happen here, riding the
   thread-state lookup the handler needs anyway: calls, reads and writes
   count 1, a [Block] counts its units. *)
let on_raw t ~tag ~tid ~arg ~len =
  if t.finished then invalid_arg "Drms_profiler: event after finish";
  match tag with
  | 1 ->
    let st = thread_state t tid in
    st.cost <- st.cost + 1;
    on_call t st arg
  | 2 -> on_return t (thread_state t tid)
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
  | 7 -> on_kernel_to_user t arg len
  | 11 -> on_free t arg len
  | 14 -> tick t
  | _ -> ()

(* {!on_raw} restricted to foreign events (sharded replay), the events
   carrying a global effect.  Kernel fills (7), frees (11) and thread
   switches (14) take the same path as the owned dispatch; only calls
   (tick-without-frame) and writes (stamp-without-[ts_local]) differ.
   Foreign reads, returns, blocks and syscall reads never reach a
   non-owner (they are not broadcast), so they have no case here. *)
let on_raw_foreign t ~tag ~arg ~len =
  if t.finished then invalid_arg "Drms_profiler: event after finish";
  match tag with
  | 1 | 14 -> tick t
  | 4 -> stamp_write t arg
  | 7 -> on_kernel_to_user t arg len
  | 11 -> on_free t arg len
  | _ -> ()

(* Direct loop over the field arrays rather than [Batch.iter]: the
   closure indirection per event is measurable at this path's speed.
   Indices below [length b] are in bounds for all four arrays.  The
   owner check branches once per batch, so the sequential hot loop is
   exactly what it was before sharding existed. *)
let on_batch t b =
  let tags = Event.Batch.tags b and tids = Event.Batch.tids b in
  let args = Event.Batch.args b and lens = Event.Batch.lens b in
  match t.owner with
  | None ->
    for i = 0 to Event.Batch.length b - 1 do
      on_raw t ~tag:(Array.unsafe_get tags i) ~tid:(Array.unsafe_get tids i)
        ~arg:(Array.unsafe_get args i) ~len:(Array.unsafe_get lens i)
    done
  | Some owns ->
    for i = 0 to Event.Batch.length b - 1 do
      let tid = Array.unsafe_get tids i in
      if owns tid then
        on_raw t ~tag:(Array.unsafe_get tags i) ~tid
          ~arg:(Array.unsafe_get args i) ~len:(Array.unsafe_get lens i)
      else
        on_raw_foreign t ~tag:(Array.unsafe_get tags i)
          ~arg:(Array.unsafe_get args i) ~len:(Array.unsafe_get lens i)
    done

let profile t = t.profile

let finish t =
  if not t.finished then begin
    t.finished <- true;
    (* Collect pending activations: by Invariant 2 the drms of frame i is
       the suffix sum of partial values; walk each stack top-down. *)
    Hashtbl.iter
      (fun _ st ->
        let drms_suffix = ref 0 and rms_suffix = ref 0 in
        for i = Vec.length st.stack - 1 downto 0 do
          let fr = Vec.get st.stack i in
          drms_suffix := !drms_suffix + fr.drms;
          rms_suffix := !rms_suffix + fr.rms;
          collect t st fr ~drms:!drms_suffix ~rms:!rms_suffix
            ~cost:(st.cost - fr.cost_at_entry)
        done;
        Vec.clear st.stack)
      t.threads
  end;
  t.profile

let merge_into ~into src = Profile.merge_into ~into:(finish into) (finish src)

let renumber_count t = t.renumberings

let context_results t = t.contexts

let space_words t =
  let frame_words = 5 in
  let acc =
    ref
      (Shadow.space_words t.wts_max + Shadow.space_words t.wts_thread
      + Shadow.space_words t.wts_kernel)
  in
  Hashtbl.iter
    (fun _ st ->
      acc := !acc + Shadow.space_words st.ts_local
             + (frame_words * Vec.length st.stack))
    t.threads;
  List.iter (fun st -> acc := !acc + Shadow.space_words st.ts_local) t.spare;
  !acc

let current_drms t ~tid =
  match Hashtbl.find_opt t.threads tid with
  | None -> []
  | Some st ->
    let n = Vec.length st.stack in
    let suffix = ref 0 in
    let out = ref [] in
    for i = n - 1 downto 0 do
      suffix := !suffix + (Vec.get st.stack i).drms;
      out := !suffix :: !out
    done;
    !out
