let check_nonempty name = function
  | [] -> invalid_arg (name ^ ": empty sample")
  | _ :: _ -> ()

let mean xs =
  check_nonempty "Stats.mean" xs;
  List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geometric_mean xs =
  check_nonempty "Stats.geometric_mean" xs;
  let log_sum =
    List.fold_left
      (fun acc x ->
        if x <= 0. then invalid_arg "Stats.geometric_mean: non-positive value"
        else acc +. log x)
      0. xs
  in
  exp (log_sum /. float_of_int (List.length xs))

let variance xs =
  check_nonempty "Stats.variance" xs;
  let m = mean xs in
  let sq = List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs in
  sq /. float_of_int (List.length xs)

let stddev xs = sqrt (variance xs)

let percentile p xs =
  check_nonempty "Stats.percentile" xs;
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 1 then a.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let tail_fraction ~at_least xs =
  match xs with
  | [] -> 0.
  | _ :: _ ->
    let n = List.length xs in
    let k = List.length (List.filter (fun x -> x >= at_least) xs) in
    float_of_int k /. float_of_int n

let value_at_top_fraction ~fraction xs =
  check_nonempty "Stats.value_at_top_fraction" xs;
  if fraction <= 0. || fraction > 1. then
    invalid_arg "Stats.value_at_top_fraction: fraction out of (0,1]";
  let a = Array.of_list xs in
  (* Sort in decreasing order: the value at abscissa [fraction] is the
     smallest of the top ceil(fraction * n) samples. *)
  Array.sort (fun x y -> compare y x) a;
  let n = Array.length a in
  let k = int_of_float (ceil (fraction *. float_of_int n)) in
  let k = min (max k 1) n in
  a.(k - 1)

module Acc = struct
  type t = {
    mutable count : int;
    mutable sum : float;
    mutable min_v : float;
    mutable max_v : float;
  }

  let create () = { count = 0; sum = 0.; min_v = infinity; max_v = neg_infinity }

  let add t x =
    t.count <- t.count + 1;
    t.sum <- t.sum +. x;
    if x < t.min_v then t.min_v <- x;
    if x > t.max_v then t.max_v <- x

  let count t = t.count
  let sum t = t.sum

  let mean t =
    if t.count = 0 then invalid_arg "Stats.Acc.mean: empty"
    else t.sum /. float_of_int t.count

  let min t =
    if t.count = 0 then invalid_arg "Stats.Acc.min: empty" else t.min_v

  let max t =
    if t.count = 0 then invalid_arg "Stats.Acc.max: empty" else t.max_v
end

type summary = { median : float; p25 : float; p75 : float }

let summary xs =
  let xs = Array.to_list xs in
  {
    median = percentile 50. xs;
    p25 = percentile 25. xs;
    p75 = percentile 75. xs;
  }

let ratio a b =
  if Array.length a <> Array.length b then
    invalid_arg "Stats.ratio: sample counts differ";
  summary (Array.map2 ( /. ) a b)

let min_sample = 0.02

type cell = ((unit -> unit) -> unit) -> unit

(* Wall seconds per call of [cell]'s timed part, calling it until the
   timed parts add up to [min_sample]. *)
let sample_cell ~now (cell : cell) =
  let spent = ref 0. and calls = ref 0 in
  while !calls = 0 || !spent < min_sample do
    let timed = ref false in
    cell (fun f ->
        if !timed then invalid_arg "Stats.sample: a cell timed twice";
        timed := true;
        let t0 = now () in
        f ();
        spent := !spent +. (now () -. t0));
    if not !timed then invalid_arg "Stats.sample: a cell timed nothing";
    incr calls
  done;
  !spent /. float_of_int !calls

let sample ~now ~rounds cells =
  if rounds < 1 then invalid_arg "Stats.sample: rounds < 1";
  let cells = Array.of_list cells in
  let samples = Array.map (fun _ -> Array.make rounds 0.) cells in
  for r = 0 to rounds - 1 do
    Array.iteri
      (fun i cell ->
        Gc.compact ();
        samples.(i).(r) <- sample_cell ~now cell)
      cells
  done;
  Array.to_list samples
