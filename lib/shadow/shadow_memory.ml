(* Three levels: top (growable array) -> mid (fixed array) -> leaf (int
   array).  Address decomposition, with L = leaf_bits and M = mid_bits:
     top index  = addr lsr (M + L)
     mid index  = (addr lsr L) land (2^M - 1)
     leaf index = addr land (2^L - 1)                                     *)

type mid = int array option array

type t = {
  leaf_bits : int;
  mid_bits : int;
  leaf_mask : int;
  mid_mask : int;
  mutable top : mid option array;
  mutable leaves : int; (* materialized leaf count, for space accounting *)
  mutable mids : int;
  (* One-entry leaf cache: profiled code touches runs of consecutive
     addresses, so the leaf resolved by the previous access usually
     serves the next one.  [last_page] is [addr lsr leaf_bits], or -1
     when empty — the cached array is the live leaf itself, so writes
     through either path stay coherent; only [clear], which replaces the
     whole table, must invalidate.  Missing leaves are never cached: a
     later [set] may materialize them. *)
  mutable last_page : int;
  mutable last_leaf : int array;
}

let create ?(leaf_bits = 10) ?(mid_bits = 10) () =
  let check name v =
    if v < 4 || v > 20 then
      invalid_arg (Printf.sprintf "Shadow_memory.create: %s = %d not in [4,20]" name v)
  in
  check "leaf_bits" leaf_bits;
  check "mid_bits" mid_bits;
  {
    leaf_bits;
    mid_bits;
    leaf_mask = (1 lsl leaf_bits) - 1;
    mid_mask = (1 lsl mid_bits) - 1;
    top = Array.make 4 None;
    leaves = 0;
    mids = 0;
    last_page = -1;
    last_leaf = [||];
  }

(* [get]/[set]/[exchange] do not guard against negative addresses: they
   run once per trace event, and every producer validates at its edge —
   the codec calls [Event.Batch.validate] per decoded batch, the
   VM allocator only hands out non-negative addresses.  [check_addr] is
   exported for edges that take addresses from elsewhere (CLI arguments,
   bulk [set_range]).  A negative address that slipped through cannot
   corrupt memory: [lsr] is logical, so the top index becomes a huge
   positive int — [get] misses the (bounds-checked) top table and reads
   0, [set] dies in [Array.make].

   [unsafe_get]/[unsafe_set] on cache hits are in bounds by construction:
   a leaf has [leaf_mask + 1] entries and the index is masked. *)

let check_addr addr =
  if addr < 0 then invalid_arg "Shadow_memory: negative address"

let get_slow t addr page =
  let ti = addr lsr (t.mid_bits + t.leaf_bits) in
  if ti >= Array.length t.top then 0
  else
    match t.top.(ti) with
    | None -> 0
    | Some mid -> (
      match mid.((addr lsr t.leaf_bits) land t.mid_mask) with
      | None -> 0
      | Some leaf ->
        t.last_page <- page;
        t.last_leaf <- leaf;
        leaf.(addr land t.leaf_mask))

let get t addr =
  let page = addr lsr t.leaf_bits in
  if page = t.last_page then Array.unsafe_get t.last_leaf (addr land t.leaf_mask)
  else get_slow t addr page

let grow_top t ti =
  let cap = Array.length t.top in
  if ti >= cap then begin
    let cap' = max (ti + 1) (cap * 2) in
    let top' = Array.make cap' None in
    Array.blit t.top 0 top' 0 cap;
    t.top <- top'
  end

let leaf_for t addr =
  let ti = addr lsr (t.mid_bits + t.leaf_bits) in
  grow_top t ti;
  let mid =
    match t.top.(ti) with
    | Some mid -> mid
    | None ->
      let mid = Array.make (t.mid_mask + 1) None in
      t.top.(ti) <- Some mid;
      t.mids <- t.mids + 1;
      mid
  in
  let mi = (addr lsr t.leaf_bits) land t.mid_mask in
  match mid.(mi) with
  | Some leaf -> leaf
  | None ->
    let leaf = Array.make (t.leaf_mask + 1) 0 in
    mid.(mi) <- Some leaf;
    t.leaves <- t.leaves + 1;
    leaf

let set t addr v =
  let page = addr lsr t.leaf_bits in
  if page = t.last_page then
    Array.unsafe_set t.last_leaf (addr land t.leaf_mask) v
  else begin
    let leaf = leaf_for t addr in
    t.last_page <- page;
    t.last_leaf <- leaf;
    leaf.(addr land t.leaf_mask) <- v
  end

(* [get] followed by [set] at the same address, resolving the leaf once:
   the first-access tests of the profilers read the old stamp and store
   the new one on every single read event. *)
let exchange t addr v =
  let page = addr lsr t.leaf_bits in
  if page = t.last_page then begin
    let i = addr land t.leaf_mask in
    let leaf = t.last_leaf in
    let old = Array.unsafe_get leaf i in
    Array.unsafe_set leaf i v;
    old
  end
  else begin
    let leaf = leaf_for t addr in
    t.last_page <- page;
    t.last_leaf <- leaf;
    let i = addr land t.leaf_mask in
    let old = leaf.(i) in
    leaf.(i) <- v;
    old
  end

let set_range t ~addr ~len v =
  check_addr addr;
  if len < 0 then invalid_arg "Shadow_memory.set_range: negative length";
  (* Walk leaf by leaf to avoid re-resolving the tables per cell. *)
  let stop = addr + len in
  let a = ref addr in
  while !a < stop do
    let leaf = leaf_for t !a in
    let li = !a land t.leaf_mask in
    let chunk = min (stop - !a) (t.leaf_mask + 1 - li) in
    Array.fill leaf li chunk v;
    a := !a + chunk
  done

let iter_set f t =
  Array.iteri
    (fun ti mid_opt ->
      match mid_opt with
      | None -> ()
      | Some mid ->
        Array.iteri
          (fun mi leaf_opt ->
            match leaf_opt with
            | None -> ()
            | Some leaf ->
              let base = (ti lsl (t.mid_bits + t.leaf_bits)) lor (mi lsl t.leaf_bits) in
              Array.iteri (fun li v -> if v <> 0 then f (base lor li) v) leaf)
          mid)
    t.top

let map_in_place f t =
  if f 0 <> 0 then invalid_arg "Shadow_memory.map_in_place: f 0 <> 0";
  Array.iter
    (fun mid_opt ->
      match mid_opt with
      | None -> ()
      | Some mid ->
        Array.iter
          (fun leaf_opt ->
            match leaf_opt with
            | None -> ()
            | Some leaf ->
              for i = 0 to Array.length leaf - 1 do
                leaf.(i) <- f leaf.(i)
              done)
          mid)
    t.top

let space_words t =
  Array.length t.top
  + (t.mids * (t.mid_mask + 1))
  + (t.leaves * (t.leaf_mask + 1))

(* The cached leaf stays valid: it is still the live leaf of its page. *)
let reset t =
  Array.iter
    (function
      | None -> ()
      | Some mid ->
        Array.iter
          (function
            | None -> () | Some leaf -> Array.fill leaf 0 (Array.length leaf) 0)
          mid)
    t.top

let clear t =
  t.top <- Array.make 4 None;
  t.leaves <- 0;
  t.mids <- 0;
  t.last_page <- -1;
  t.last_leaf <- [||]
