type t = Random.State.t

let create seed = Random.State.make [| seed; 0x9e3779b9; seed lxor 0x85ebca6b |]

let split t =
  let seed = Random.State.bits t in
  create seed

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  Random.State.int t bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let bool t = Random.State.bool t

let float t bound = Random.State.float t bound

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let gaussian t ~mu ~sigma =
  let u1 = max (Random.State.float t 1.0) 1e-12 in
  let u2 = Random.State.float t 1.0 in
  mu +. (sigma *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))
