(* An immutable list and its length behind one [Atomic.t], which both
   runtimes provide.  Every update installs a fresh pair, so a
   compare-and-set cannot succeed on a stale one. *)
type 'a t = { max_idle : int; idle : ('a list * int) Atomic.t }

let create ~max_idle =
  if max_idle < 0 then invalid_arg "Pool.create";
  { max_idle; idle = Atomic.make ([], 0) }

let rec take p =
  match Atomic.get p.idle with
  | [], _ -> None
  | (x :: rest, n) as cur ->
    if Atomic.compare_and_set p.idle cur (rest, n - 1) then Some x
    else take p

let rec give p x =
  let ((l, n) as cur) = Atomic.get p.idle in
  if n < p.max_idle && not (Atomic.compare_and_set p.idle cur (x :: l, n + 1))
  then give p x

let full p = snd (Atomic.get p.idle) >= p.max_idle
