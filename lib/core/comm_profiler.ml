module Event = Aprof_trace.Event
module Shadow = Aprof_shadow.Shadow_memory
module Vec = Aprof_util.Vec

let kernel_id = -2

type edge = { from_id : int; to_id : int; values : int }

type report = {
  thread_matrix : edge list;
  routine_matrix : edge list;
  communicating_cells : int;
  single_pair_cells : int;
  total_values : int;
}

type thread_state = {
  ts_local : Shadow.t; (* latest access stamp, as in the drms algorithm *)
  stack : int Vec.t; (* routine ids only: we need the current routine *)
}

type t = {
  mutable count : int;
  wts : Shadow.t; (* latest write stamp per cell (thread or kernel) *)
  wtid : Shadow.t; (* latest writer thread id + 3 (0 = none, 1 = kernel) *)
  wrtn : Shadow.t; (* latest writer routine id + 3 (0 = none, 1 = kernel) *)
  threads : (int, thread_state) Hashtbl.t;
  thread_edges : (int * int, int ref) Hashtbl.t;
  routine_edges : (int * int, int ref) Hashtbl.t;
  (* per-cell: the single (writer tid, reader tid) pair seen, or -1 when
     several distinct pairs used the cell *)
  cell_pairs : (int, (int * int) ref) Hashtbl.t;
  mutable total : int;
  mutable finished : bool;
}

(* Shadow words are offset by 3 so that 0 keeps meaning "never written"
   and the kernel (id -2) maps to 1. *)
let encode_id id = id + 3
let decode_id w = w - 3

let create () =
  {
    count = 0;
    wts = Shadow.create ();
    wtid = Shadow.create ();
    wrtn = Shadow.create ();
    threads = Hashtbl.create 8;
    thread_edges = Hashtbl.create 64;
    routine_edges = Hashtbl.create 256;
    cell_pairs = Hashtbl.create 1024;
    total = 0;
    finished = false;
  }

let thread_state t tid =
  match Hashtbl.find_opt t.threads tid with
  | Some st -> st
  | None ->
    let st = { ts_local = Shadow.create (); stack = Vec.create () } in
    Hashtbl.add t.threads tid st;
    st

let bump tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> incr r
  | None -> Hashtbl.add tbl key (ref 1)

let note_cell t addr pair =
  match Hashtbl.find_opt t.cell_pairs addr with
  | None -> Hashtbl.add t.cell_pairs addr (ref pair)
  | Some r -> if !r <> pair && !r <> (-1, -1) then r := (-1, -1)

let on_read t tid addr =
  let st = thread_state t tid in
  let ts_l = Shadow.get st.ts_local addr in
  let w = Shadow.get t.wts addr in
  if ts_l < w then begin
    (* a value flowed into this thread: credit the producing edge *)
    let writer_tid = decode_id (Shadow.get t.wtid addr) in
    let writer_rtn = decode_id (Shadow.get t.wrtn addr) in
    let reader_rtn = if Vec.is_empty st.stack then -1 else Vec.top st.stack in
    bump t.thread_edges (writer_tid, tid);
    bump t.routine_edges (writer_rtn, reader_rtn);
    note_cell t addr (writer_tid, tid);
    t.total <- t.total + 1
  end;
  Shadow.set st.ts_local addr t.count

let on_write t tid addr =
  let st = thread_state t tid in
  let rtn = if Vec.is_empty st.stack then -1 else Vec.top st.stack in
  Shadow.set st.ts_local addr t.count;
  Shadow.set t.wts addr t.count;
  Shadow.set t.wtid addr (encode_id tid);
  Shadow.set t.wrtn addr (encode_id rtn)

(* Dispatch on the packed fields; tag literals are {!Event.Batch}'s:
   1 Call, 2 Return, 3 Read, 4 Write, 6 U2k, 7 K2u, 11 Free, 14
   Switch_thread. *)
let on_raw t ~tag ~tid ~arg ~len =
  match tag with
  | 1 ->
    t.count <- t.count + 1;
    Vec.push (thread_state t tid).stack arg
  | 2 ->
    let st = thread_state t tid in
    if Vec.is_empty st.stack then
      invalid_arg "Comm_profiler: return with empty stack";
    ignore (Vec.pop st.stack)
  | 3 -> on_read t tid arg
  | 4 -> on_write t tid arg
  | 14 -> t.count <- t.count + 1
  | 7 ->
    t.count <- t.count + 1;
    Shadow.set_range t.wts ~addr:arg ~len t.count;
    Shadow.set_range t.wtid ~addr:arg ~len (encode_id kernel_id);
    Shadow.set_range t.wrtn ~addr:arg ~len (encode_id kernel_id)
  | 6 ->
    for a = arg to arg + len - 1 do
      on_read t tid a
    done
  | 11 ->
    (* Mirror the drms profiler: recycled addresses start fresh. *)
    Shadow.set_range t.wts ~addr:arg ~len 0;
    Shadow.set_range t.wtid ~addr:arg ~len 0;
    Shadow.set_range t.wrtn ~addr:arg ~len 0;
    Hashtbl.iter
      (fun _ st -> Shadow.set_range st.ts_local ~addr:arg ~len 0)
      t.threads
  | _ -> ()

let on_batch t b =
  if t.finished then invalid_arg "Comm_profiler: event after report";
  let module B = Event.Batch in
  let tags = B.tags b and tids = B.tids b in
  let args = B.args b and lens = B.lens b in
  for i = 0 to B.length b - 1 do
    on_raw t ~tag:(Array.unsafe_get tags i) ~tid:(Array.unsafe_get tids i)
      ~arg:(Array.unsafe_get args i) ~len:(Array.unsafe_get lens i)
  done

let edges_of tbl =
  Hashtbl.fold
    (fun (from_id, to_id) r acc -> { from_id; to_id; values = !r } :: acc)
    tbl []
  |> List.sort (fun a b -> compare b.values a.values)

let report t =
  t.finished <- true;
  let single =
    Hashtbl.fold
      (fun _ r acc -> if !r <> (-1, -1) then acc + 1 else acc)
      t.cell_pairs 0
  in
  {
    thread_matrix = edges_of t.thread_edges;
    routine_matrix = edges_of t.routine_edges;
    communicating_cells = Hashtbl.length t.cell_pairs;
    single_pair_cells = single;
    total_values = t.total;
  }

let pp ~routine_name ppf r =
  let id_name f = function
    | -2 -> "<kernel>"
    | -1 -> "<toplevel>"
    | id -> f id
  in
  Format.fprintf ppf "@[<v>shared-memory communication: %d values over %d cells \
                      (%d single-pair cells)@,"
    r.total_values r.communicating_cells r.single_pair_cells;
  Format.fprintf ppf "thread matrix (writer -> reader):@,";
  List.iter
    (fun e ->
      Format.fprintf ppf "  %10s -> %-10s %8d@,"
        (id_name string_of_int e.from_id)
        (id_name string_of_int e.to_id)
        e.values)
    r.thread_matrix;
  Format.fprintf ppf "routine matrix (producer -> consumer):@,";
  List.iter
    (fun e ->
      Format.fprintf ppf "  %24s -> %-24s %8d@,"
        (id_name routine_name e.from_id)
        (id_name routine_name e.to_id)
        e.values)
    r.routine_matrix;
  Format.fprintf ppf "@]"
