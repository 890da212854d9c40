type key = { tid : int; routine : int }

type point = {
  input : int;
  calls : int;
  max_cost : int;
  min_cost : int;
  sum_cost : float;
  sum_cost_sq : float;
}

type routine_data = {
  drms_points : point list;
  rms_points : point list;
  activations : int;
  sum_rms : float;
  sum_drms : float;
  total_cost : float;
  first_read_ops : int;
  induced_thread_ops : int;
  induced_external_ops : int;
}

(* All-float records are stored flat, so updating these sums in the hot
   path does not box a float per store — unlike mutable float fields in
   the mixed records below, which would. *)
type fsums = { mutable f_sum : float; mutable f_sum_sq : float }

(* Internal mutable accumulator for one input-size value; converted to
   the immutable [point] on demand.  Mutated in place so an activation
   costs no allocation, where rebuilding a [point] per activation would
   allocate the record plus fresh float boxes. *)
type acc = {
  a_input : int;
  mutable a_calls : int;
  mutable a_max : int;
  mutable a_min : int;
  a_cost : fsums;
}

type totals = {
  mutable t_rms : float;
  mutable t_drms : float;
  mutable t_cost : float;
}

(* Internal mutable accumulator; converted to [routine_data] on demand.
   [last_drms_acc]/[last_rms_acc] cache the accumulator of the most
   recent input size per metric: activations of a routine overwhelmingly
   repeat the previous input size, and the cache turns both point-table
   lookups of an activation into an int compare.  The cached accumulator
   is the live table entry, so updates through either path agree; the
   shared [sentinel_acc] ([a_input = min_int], below any real size)
   stands for "empty" and is never written. *)
type cell = {
  k_tid : int;
  k_routine : int;
  drms_tbl : (int, acc) Hashtbl.t;
  rms_tbl : (int, acc) Hashtbl.t;
  mutable last_drms_acc : acc;
  mutable last_rms_acc : acc;
  mutable acts : int;
  sums : totals;
  mutable plain : int;
  mutable ind_thread : int;
  mutable ind_external : int;
}

(* Cells are keyed by the packed (tid, routine) pair: profilers hit this
   table on every call and return, and an int key avoids both the key
   record allocation and the generic structural hash of a record key.
   Routine ids (including CCT node ids) fit well below 2^32, tids below
   2^30.  [last] is a one-entry cache: activations cluster by routine,
   so consecutive lookups usually repeat the previous key. *)
type t = {
  cells : (int, cell) Hashtbl.t;
  mutable last_code : int;
  mutable last_cell : cell option;
}

let code ~tid ~routine = (tid lsl 32) lor (routine land 0xFFFFFFFF)

let create () : t =
  { cells = Hashtbl.create 64; last_code = min_int; last_cell = None }

let sentinel_acc =
  {
    a_input = min_int;
    a_calls = 0;
    a_max = 0;
    a_min = 0;
    a_cost = { f_sum = 0.; f_sum_sq = 0. };
  }

let fresh_cell ~tid ~routine =
  {
    k_tid = tid;
    k_routine = routine;
    drms_tbl = Hashtbl.create 8;
    rms_tbl = Hashtbl.create 8;
    last_drms_acc = sentinel_acc;
    last_rms_acc = sentinel_acc;
    acts = 0;
    sums = { t_rms = 0.; t_drms = 0.; t_cost = 0. };
    plain = 0;
    ind_thread = 0;
    ind_external = 0;
  }

let cell_slow t ~tid ~routine c =
  let cl =
    match Hashtbl.find t.cells c with
    | cl -> cl
    | exception Not_found ->
      let cl = fresh_cell ~tid ~routine in
      Hashtbl.add t.cells c cl;
      cl
  in
  t.last_code <- c;
  t.last_cell <- Some cl;
  cl

let cell t ~tid ~routine =
  let c = code ~tid ~routine in
  if c = t.last_code then
    match t.last_cell with Some cl -> cl | None -> assert false
  else cell_slow t ~tid ~routine c

let bump_acc a cost fcost =
  a.a_calls <- a.a_calls + 1;
  if cost > a.a_max then a.a_max <- cost;
  if cost < a.a_min then a.a_min <- cost;
  a.a_cost.f_sum <- a.a_cost.f_sum +. fcost;
  a.a_cost.f_sum_sq <- a.a_cost.f_sum_sq +. (fcost *. fcost)

(* Find-or-create the accumulator of [input], already bumped by [cost]. *)
let acc_for tbl input cost fcost =
  match Hashtbl.find tbl input with
  | a ->
    bump_acc a cost fcost;
    a
  | exception Not_found ->
    let a =
      {
        a_input = input;
        a_calls = 1;
        a_max = cost;
        a_min = cost;
        a_cost = { f_sum = fcost; f_sum_sq = fcost *. fcost };
      }
    in
    Hashtbl.add tbl input a;
    a

let record_into c ~rms ~drms ~cost =
  c.acts <- c.acts + 1;
  c.sums.t_rms <- c.sums.t_rms +. float_of_int rms;
  c.sums.t_drms <- c.sums.t_drms +. float_of_int drms;
  c.sums.t_cost <- c.sums.t_cost +. float_of_int cost;
  let fcost = float_of_int cost in
  let da = c.last_drms_acc in
  if da.a_input = drms then bump_acc da cost fcost
  else c.last_drms_acc <- acc_for c.drms_tbl drms cost fcost;
  let ra = c.last_rms_acc in
  if ra.a_input = rms then bump_acc ra cost fcost
  else c.last_rms_acc <- acc_for c.rms_tbl rms cost fcost

let record_activation t ~tid ~routine ~rms ~drms ~cost =
  record_into (cell t ~tid ~routine) ~rms ~drms ~cost

let record_ops t ~tid ~routine ~plain ~induced_thread ~induced_external =
  let c = cell t ~tid ~routine in
  c.plain <- c.plain + plain;
  c.ind_thread <- c.ind_thread + induced_thread;
  c.ind_external <- c.ind_external + induced_external

type ops_handle = cell

let ops_handle t ~tid ~routine = cell t ~tid ~routine
let no_handle = fresh_cell ~tid:(-1) ~routine:(-1)
let bump_plain c = c.plain <- c.plain + 1
let bump_induced_thread c = c.ind_thread <- c.ind_thread + 1
let bump_induced_external c = c.ind_external <- c.ind_external + 1

let point_of_acc a =
  {
    input = a.a_input;
    calls = a.a_calls;
    max_cost = a.a_max;
    min_cost = a.a_min;
    sum_cost = a.a_cost.f_sum;
    sum_cost_sq = a.a_cost.f_sum_sq;
  }

let points_of_tbl tbl =
  Hashtbl.fold (fun _ a acc -> point_of_acc a :: acc) tbl []
  |> List.sort (fun a b -> compare a.input b.input)

let data_of_cell c =
  {
    drms_points = points_of_tbl c.drms_tbl;
    rms_points = points_of_tbl c.rms_tbl;
    activations = c.acts;
    sum_rms = c.sums.t_rms;
    sum_drms = c.sums.t_drms;
    total_cost = c.sums.t_cost;
    first_read_ops = c.plain;
    induced_thread_ops = c.ind_thread;
    induced_external_ops = c.ind_external;
  }

let keys t =
  Hashtbl.fold
    (fun _ c acc -> { tid = c.k_tid; routine = c.k_routine } :: acc)
    t.cells []

let data t key =
  Option.map data_of_cell
    (Hashtbl.find_opt t.cells (code ~tid:key.tid ~routine:key.routine))

let routines t =
  let seen = Hashtbl.create 16 in
  Hashtbl.iter (fun _ c -> Hashtbl.replace seen c.k_routine ()) t.cells;
  Hashtbl.fold (fun r () acc -> r :: acc) seen []
  |> List.sort compare

let merge_accs target src =
  let merge_tbl dst src_tbl =
    Hashtbl.iter
      (fun input a ->
        match Hashtbl.find_opt dst input with
        | None ->
          Hashtbl.add dst input
            {
              a_input = a.a_input;
              a_calls = a.a_calls;
              a_max = a.a_max;
              a_min = a.a_min;
              a_cost = { f_sum = a.a_cost.f_sum; f_sum_sq = a.a_cost.f_sum_sq };
            }
        | Some q ->
          q.a_calls <- q.a_calls + a.a_calls;
          if a.a_max > q.a_max then q.a_max <- a.a_max;
          if a.a_min < q.a_min then q.a_min <- a.a_min;
          q.a_cost.f_sum <- q.a_cost.f_sum +. a.a_cost.f_sum;
          q.a_cost.f_sum_sq <- q.a_cost.f_sum_sq +. a.a_cost.f_sum_sq)
      src_tbl
  in
  merge_tbl target.drms_tbl src.drms_tbl;
  merge_tbl target.rms_tbl src.rms_tbl;
  target.acts <- target.acts + src.acts;
  target.sums.t_rms <- target.sums.t_rms +. src.sums.t_rms;
  target.sums.t_drms <- target.sums.t_drms +. src.sums.t_drms;
  target.sums.t_cost <- target.sums.t_cost +. src.sums.t_cost;
  target.plain <- target.plain + src.plain;
  target.ind_thread <- target.ind_thread + src.ind_thread;
  target.ind_external <- target.ind_external + src.ind_external

(* Cells and fit points are associative aggregates by construction
   (counts and sums add, maxes max), so combining two profiles is a
   cell-wise [merge_accs]: the result is what one profiler would have
   produced had it seen both event sets.  The destination's one-entry
   caches stay valid — [merge_accs] mutates live table entries in
   place and never replaces them. *)
let merge_into ~into src =
  Hashtbl.iter
    (fun _ s -> merge_accs (cell into ~tid:s.k_tid ~routine:s.k_routine) s)
    src.cells

let merge a b =
  let t = create () in
  merge_into ~into:t a;
  merge_into ~into:t b;
  t

let merge_threads t =
  let merged : (int, cell) Hashtbl.t = Hashtbl.create 32 in
  Hashtbl.iter
    (fun _ src ->
      let dst =
        match Hashtbl.find_opt merged src.k_routine with
        | Some c -> c
        | None ->
          let c = fresh_cell ~tid:0 ~routine:src.k_routine in
          Hashtbl.add merged src.k_routine c;
          c
      in
      merge_accs dst src)
    t.cells;
  Hashtbl.fold (fun r c acc -> (r, data_of_cell c) :: acc) merged []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let cost_points ~metric ~cost d =
  let points =
    match metric with `Drms -> d.drms_points | `Rms -> d.rms_points
  in
  List.map
    (fun p ->
      let c =
        match cost with
        | `Max -> float_of_int p.max_cost
        | `Mean -> p.sum_cost /. float_of_int p.calls
      in
      (p.input, c))
    points

let total_activations t =
  Hashtbl.fold (fun _ c acc -> acc + c.acts) t.cells 0

let restore_point t ~tid ~routine ~metric (p : point) =
  let c = cell t ~tid ~routine in
  let tbl = match metric with `Drms -> c.drms_tbl | `Rms -> c.rms_tbl in
  match Hashtbl.find_opt tbl p.input with
  | None ->
    Hashtbl.add tbl p.input
      {
        a_input = p.input;
        a_calls = p.calls;
        a_max = p.max_cost;
        a_min = p.min_cost;
        a_cost = { f_sum = p.sum_cost; f_sum_sq = p.sum_cost_sq };
      }
  | Some q ->
    q.a_calls <- q.a_calls + p.calls;
    if p.max_cost > q.a_max then q.a_max <- p.max_cost;
    if p.min_cost < q.a_min then q.a_min <- p.min_cost;
    q.a_cost.f_sum <- q.a_cost.f_sum +. p.sum_cost;
    q.a_cost.f_sum_sq <- q.a_cost.f_sum_sq +. p.sum_cost_sq

let restore_aggregates t ~tid ~routine ~activations ~sum_rms ~sum_drms
    ~total_cost =
  let c = cell t ~tid ~routine in
  c.acts <- activations;
  c.sums.t_rms <- sum_rms;
  c.sums.t_drms <- sum_drms;
  c.sums.t_cost <- total_cost

let pp name ppf t =
  let entries =
    keys t
    |> List.sort (fun a b -> compare (a.routine, a.tid) (b.routine, b.tid))
  in
  List.iter
    (fun k ->
      match data t k with
      | None -> ()
      | Some d ->
        Format.fprintf ppf "@[<v 2>%s (thread %d): %d activations@," (name k.routine)
          k.tid d.activations;
        Format.fprintf ppf "drms points:";
        List.iter
          (fun p -> Format.fprintf ppf "@, input=%d calls=%d max_cost=%d" p.input p.calls p.max_cost)
          d.drms_points;
        Format.fprintf ppf "@]@.")
    entries
