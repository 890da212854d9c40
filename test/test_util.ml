(* Unit and property tests of the utility layer. *)

module Vec = Aprof_util.Vec
module Stats = Aprof_util.Stats
module Rng = Aprof_util.Rng
module Pool = Aprof_util.Pool

let test_vec_basics () =
  let v = Vec.create () in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Vec.set v 42 (-1);
  Alcotest.(check int) "set" (-1) (Vec.get v 42);
  Alcotest.(check int) "top" 99 (Vec.top v);
  Alcotest.(check int) "pop" 99 (Vec.pop v);
  Alcotest.(check int) "length after pop" 99 (Vec.length v);
  Vec.truncate v 10;
  Alcotest.(check int) "truncate" 10 (Vec.length v);
  Alcotest.(check (list int)) "to_list" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (Vec.to_list v)

let test_vec_bounds () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Vec: index 3 out of bounds [0,3)") (fun () ->
      ignore (Vec.get v 3));
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty")
    (fun () -> ignore (Vec.pop (Vec.create ())))

let test_vec_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"vec of_list/to_list roundtrip" ~count:200
       QCheck2.Gen.(list int)
       (fun l -> Vec.to_list (Vec.of_list l) = l))

let test_vec_sort =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"vec sort agrees with List.sort" ~count:200
       QCheck2.Gen.(list int)
       (fun l ->
         let v = Vec.of_list l in
         Vec.sort compare v;
         Vec.to_list v = List.sort compare l))

let test_stats_basics () =
  Alcotest.(check (float 1e-9)) "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "geomean" 4. (Stats.geometric_mean [ 2.; 8. ]);
  Alcotest.(check (float 1e-9)) "variance" (8. /. 3.) (Stats.variance [ 1.; 3.; 5. ]);
  Alcotest.(check (float 1e-9)) "p50" 2. (Stats.percentile 50. [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "tail" 0.5
    (Stats.tail_fraction ~at_least:2.5 [ 1.; 2.; 3.; 4. ])

let test_value_at_top_fraction () =
  let xs = [ 10.; 20.; 30.; 40.; 50.; 60.; 70.; 80.; 90.; 100. ] in
  (* top 10% of ten samples is the single largest *)
  Alcotest.(check (float 1e-9)) "top 10%" 100.
    (Stats.value_at_top_fraction ~fraction:0.1 xs);
  Alcotest.(check (float 1e-9)) "top 50%" 60.
    (Stats.value_at_top_fraction ~fraction:0.5 xs);
  Alcotest.(check (float 1e-9)) "top 100%" 10.
    (Stats.value_at_top_fraction ~fraction:1.0 xs)

let test_geomean_positive =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"geomean between min and max" ~count:200
       QCheck2.Gen.(list_size (int_range 1 20) (float_range 0.1 1000.))
       (fun xs ->
         let g = Stats.geometric_mean xs in
         let mn = List.fold_left Float.min infinity xs in
         let mx = List.fold_left Float.max neg_infinity xs in
         g >= mn -. 1e-9 && g <= mx +. 1e-9))

let test_acc () =
  let a = Stats.Acc.create () in
  List.iter (Stats.Acc.add a) [ 3.; 1.; 2. ];
  Alcotest.(check int) "count" 3 (Stats.Acc.count a);
  Alcotest.(check (float 1e-9)) "sum" 6. (Stats.Acc.sum a);
  Alcotest.(check (float 1e-9)) "mean" 2. (Stats.Acc.mean a);
  Alcotest.(check (float 1e-9)) "min" 1. (Stats.Acc.min a);
  Alcotest.(check (float 1e-9)) "max" 3. (Stats.Acc.max a)

(* The sampler on a fake clock: a cell's timed part advances it by
   [step], its untimed setup by [setup]. *)
let fake_cell clock ?(setup = 0.) ~step on_call time =
  on_call ();
  clock := !clock +. setup;
  time (fun () -> clock := !clock +. step)

let test_sample_rounds () =
  let clock = ref 0. and log = ref [] in
  let step = 2. *. Stats.min_sample in
  let cell i = fake_cell clock ~step (fun () -> log := i :: !log) in
  let samples =
    Stats.sample ~now:(fun () -> !clock) ~rounds:4 [ cell 0; cell 1; cell 2 ]
  in
  Alcotest.(check (list int))
    "each round runs every cell once, in order"
    (List.concat (List.init 4 (fun _ -> [ 0; 1; 2 ])))
    (List.rev !log);
  Alcotest.(check (list int)) "rounds samples per cell" [ 4; 4; 4 ]
    (List.map Array.length samples);
  List.iter
    (Array.iter (Alcotest.(check (float 1e-12)) "one call per sample" step))
    samples

let test_sample_repeats_short_cells () =
  let clock = ref 0. and calls = ref 0 in
  let step = 0.3 *. Stats.min_sample in
  let samples =
    Stats.sample ~now:(fun () -> !clock) ~rounds:2
      [ fake_cell clock ~setup:1. ~step (fun () -> incr calls) ]
  in
  Alcotest.(check int) "4 calls reach the minimum sample, per round" 8 !calls;
  Array.iter
    (Alcotest.(check (float 1e-12)) "mean timed seconds, setup left out" step)
    (List.hd samples)

let test_summaries () =
  let s = Stats.summary [| 5.; 1.; 4.; 2.; 3. |] in
  Alcotest.(check (list (float 1e-12))) "median and quartiles" [ 3.; 2.; 4. ]
    [ s.Stats.median; s.Stats.p25; s.Stats.p75 ];
  (* Per-round ratios 2, 3, 1: their median is 2, where the ratio of
     the medians would be 4 / 3. *)
  let r = Stats.ratio [| 2.; 9.; 4. |] [| 1.; 3.; 4. |] in
  Alcotest.(check (list (float 1e-12))) "median of per-round ratios"
    [ 2.; 1.5; 2.5 ]
    [ r.Stats.median; r.Stats.p25; r.Stats.p75 ]

let test_sample_errors () =
  let now () = 0. in
  Alcotest.check_raises "a cell's exception propagates" (Failure "boom")
    (fun () ->
      ignore (Stats.sample ~now ~rounds:3 [ (fun _ -> failwith "boom") ]));
  Alcotest.check_raises "a cell that times nothing"
    (Invalid_argument "Stats.sample: a cell timed nothing") (fun () ->
      ignore (Stats.sample ~now ~rounds:1 [ (fun _ -> ()) ]))

let test_rng_determinism () =
  let draw seed =
    let rng = Rng.create seed in
    List.init 20 (fun _ -> Rng.int rng 1000)
  in
  Alcotest.(check (list int)) "same seed, same stream" (draw 7) (draw 7);
  Alcotest.(check bool) "different seeds differ" true (draw 7 <> draw 8)

let test_rng_bounds =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"rng int_in within range" ~count:500
       QCheck2.Gen.(pair (int_range (-100) 100) (int_range 0 100))
       (fun (lo, span) ->
         let rng = Rng.create (lo + span) in
         let v = Rng.int_in rng lo (lo + span) in
         v >= lo && v <= lo + span))

let test_shuffle_permutes =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"shuffle is a permutation" ~count:200
       QCheck2.Gen.(list int)
       (fun l ->
         let a = Array.of_list l in
         Rng.shuffle (Rng.create 3) a;
         List.sort compare (Array.to_list a) = List.sort compare l))

let test_crc32c_vectors () =
  let crc s = Aprof_util.Crc32c.digest_string s ~pos:0 ~len:(String.length s) in
  (* Published CRC32C (iSCSI) test vectors. *)
  Alcotest.(check int) "empty" 0 (crc "");
  Alcotest.(check int) "123456789" 0xE3069283 (crc "123456789");
  Alcotest.(check int) "32 zero bytes" 0x8A9136AA (crc (String.make 32 '\x00'));
  Alcotest.(check int) "fox"
    0x22620404
    (crc "The quick brown fox jumps over the lazy dog");
  (* Sub-range addressing. *)
  Alcotest.(check int) "pos/len window" (crc "123456789")
    (Aprof_util.Crc32c.digest_string "xx123456789yy" ~pos:2 ~len:9);
  Alcotest.check_raises "bad range"
    (Invalid_argument "Crc32c.digest: invalid range") (fun () ->
      ignore (Aprof_util.Crc32c.digest (Bytes.create 4) ~pos:2 ~len:3))

let test_crc32c_incremental =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"crc32c composes incrementally" ~count:300
       QCheck2.Gen.(pair string string)
       (fun (a, b) ->
         let digest ?crc s =
           Aprof_util.Crc32c.digest_string ?crc s ~pos:0
             ~len:(String.length s)
         in
         digest ~crc:(digest a) b = digest (a ^ b)))

(* The stub (hardware or C tables, picked at runtime) against the
   byte-at-a-time OCaml specification, over random windows so every
   tail-length path of the 8-byte kernels is exercised. *)
let test_crc32c_matches_spec =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"crc32c stub matches bytewise spec" ~count:500
       QCheck2.Gen.(triple string small_nat small_nat)
       (fun (s, skip, cut) ->
         let b = Bytes.of_string s in
         let pos = min skip (Bytes.length b) in
         let len = max 0 (min (Bytes.length b - pos) (Bytes.length b - cut)) in
         Aprof_util.Crc32c.digest b ~pos ~len
         = Aprof_util.Crc32c.digest_bytewise b ~pos ~len))

(* An idle pool hands back the most recent object first, keeps at most
   [max_idle], and under concurrent users neither loses nor duplicates
   what it keeps. *)
let test_pool () =
  let p = Pool.create ~max_idle:2 in
  Alcotest.(check (option int)) "empty" None (Pool.take p);
  List.iter (Pool.give p) [ 1; 2; 3 ];
  Alcotest.(check bool) "full" true (Pool.full p);
  let a = Pool.take p in
  let b = Pool.take p in
  let c = Pool.take p in
  Alcotest.(check (list (option int)))
    "newest first, third dropped"
    [ Some 2; Some 1; None ]
    [ a; b; c ];
  Alcotest.(check bool) "not full" false (Pool.full p);
  let p = Pool.create ~max_idle:64 in
  for i = 0 to 63 do
    Pool.give p i
  done;
  let rounds = 2_000 in
  let seen = Array.make 4 [] in
  Aprof_util.Par.run
    (Aprof_util.Par.create ~jobs:4 ())
    (Array.init 4 (fun k () ->
         for _ = 1 to rounds do
           match Pool.take p with
           | Some x -> Pool.give p x
           | None -> ()
         done;
         match Pool.take p with
         | Some x -> seen.(k) <- [ x ]
         | None -> ()));
  let rec drain acc =
    match Pool.take p with Some x -> drain (x :: acc) | None -> acc
  in
  let all = drain (List.concat (Array.to_list seen)) in
  Alcotest.(check (list int))
    "every object exactly once"
    (List.init 64 Fun.id)
    (List.sort compare all)

let suite =
  [
    Alcotest.test_case "vec basics" `Quick test_vec_basics;
    Alcotest.test_case "vec bounds" `Quick test_vec_bounds;
    test_vec_roundtrip;
    test_vec_sort;
    Alcotest.test_case "stats basics" `Quick test_stats_basics;
    Alcotest.test_case "value at top fraction" `Quick test_value_at_top_fraction;
    test_geomean_positive;
    Alcotest.test_case "acc" `Quick test_acc;
    Alcotest.test_case "sampler: interleaved rounds" `Quick test_sample_rounds;
    Alcotest.test_case "sampler: short cells repeat" `Quick
      test_sample_repeats_short_cells;
    Alcotest.test_case "sampler: median, quartiles, ratios" `Quick
      test_summaries;
    Alcotest.test_case "sampler: errors" `Quick test_sample_errors;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    test_rng_bounds;
    test_shuffle_permutes;
    Alcotest.test_case "crc32c known vectors" `Quick test_crc32c_vectors;
    test_crc32c_incremental;
    test_crc32c_matches_spec;
    Alcotest.test_case "idle pool: bounded, newest first, shared" `Quick
      test_pool;
  ]
