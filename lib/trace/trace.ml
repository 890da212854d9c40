module Vec = Aprof_util.Vec
module Batch = Event.Batch

(* Every sealed batch holds exactly [chunk] events, so event [i] is row
   [i mod chunk] of batch [i / chunk] (the tail when that batch is not
   sealed yet).  The tail starts small and grows to [chunk] by doubling,
   so a short trace does not pay for a whole batch. *)
let chunk = Batch.default_capacity

type t = {
  sealed : Batch.t Vec.t;
  mutable tail : Batch.t;
  mutable length : int;
}

let create () =
  { sealed = Vec.create (); tail = Batch.create ~capacity:64 (); length = 0 }

let length t = t.length

(* Room for at least one more event in the tail: seal a full [chunk]
   tail, or regrow a smaller one towards [want] more events. *)
let make_room t ~want =
  let tail = t.tail in
  if Batch.is_full tail then begin
    let cap = Batch.capacity tail in
    if cap >= chunk then begin
      Vec.push t.sealed tail;
      t.tail <- Batch.create ~capacity:chunk ()
    end
    else begin
      let bigger =
        Batch.create ~capacity:(min chunk (max (2 * cap) (cap + want))) ()
      in
      Batch.append bigger tail ~pos:0 ~len:cap;
      t.tail <- bigger
    end
  end

let push t ev =
  make_room t ~want:1;
  Batch.push t.tail ev;
  t.length <- t.length + 1

let add_batch t b =
  let n = Batch.length b in
  let pos = ref 0 in
  while !pos < n do
    make_room t ~want:(n - !pos);
    let tail = t.tail in
    let k = min (n - !pos) (Batch.capacity tail - Batch.length tail) in
    Batch.append tail b ~pos:!pos ~len:k;
    pos := !pos + k
  done;
  t.length <- t.length + n

let replay t f =
  Vec.iter f t.sealed;
  if not (Batch.is_empty t.tail) then f t.tail

let batch_of t k =
  if k < Vec.length t.sealed then Vec.get t.sealed k else t.tail

let iter_raw t ~pos ~len f =
  if pos < 0 || len < 0 || pos + len > t.length then
    invalid_arg "Trace.iter_raw: range out of bounds";
  let stop = pos + len in
  let i = ref pos in
  while !i < stop do
    let k = !i / chunk in
    let b = batch_of t k in
    let base = k * chunk in
    let tags = Batch.tags b and tids = Batch.tids b in
    let args = Batch.args b and lens = Batch.lens b in
    for j = !i - base to min stop (base + Batch.length b) - base - 1 do
      f tags.(j) tids.(j) args.(j) lens.(j)
    done;
    i := min stop (base + Batch.length b)
  done
