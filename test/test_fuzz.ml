(* Fuzzers for the parsed text inputs: [format,3] profile dumps
   ({!Profile_io.of_string_meta}) and [costmodel,1] model stores
   ({!Model_store.of_string}).  Real dumps are damaged by byte flips,
   truncations and spliced fields; the parser must answer [Ok] or
   [Error], never raise. *)

module Profile_io = Aprof_core.Profile_io
module Store = Aprof_analysis.Model_store

let meta =
  {
    Aprof_core.Run_meta.workload = "mysqlslap";
    seed = 2;
    scale = 80;
    threads = 3;
    scheduler = "round-robin(64)";
  }

(* One real run, dumped both ways. *)
let dumps =
  lazy
    (let result =
       Helpers.run_workload
         (Aprof_workloads.Mysql_sim.mysqlslap ~clients:3 ~queries:4 ~rows:80
            ~seed:2)
     in
     let routine_name =
       Aprof_trace.Routine_table.name result.Aprof_vm.Interp.routines
     in
     let profile = Helpers.run_drms result.Aprof_vm.Interp.trace in
     let store =
       Store.create ~meta
         (Store.analyze ~bootstrap:8 ~seed:1 ~routine_name profile)
     in
     (Profile_io.to_string ~routine_name ~meta profile, Store.to_string store))

type damage =
  | Flip of int * int  (* byte index, xor mask *)
  | Truncate of int
  | Splice of int * int * string  (* line, field, replacement *)

(* Replacement fields: boundary numbers, junk, and separators that
   shift every later field of the line. *)
let fields =
  [ ""; "0"; "-1"; "4611686018427387903"; "99999999999999999999"; "nan";
    "inf"; "-0.0"; "1e309"; "x"; ","; ",,"; "\""; "\n"; "format"; "3";
    "costmodel"; "point"; "model" ]

let gen_damage =
  QCheck2.Gen.(
    list_size (int_range 1 4)
      (oneof
         [
           map2 (fun i m -> Flip (i, m)) nat (int_range 1 255);
           map (fun n -> Truncate n) nat;
           map3 (fun l f r -> Splice (l, f, r)) nat (int_range 0 12)
             (oneofl fields);
         ]))

let show_damage = function
  | Flip (i, m) -> Printf.sprintf "flip byte %d mask %#x" i m
  | Truncate n -> Printf.sprintf "truncate at %d" n
  | Splice (l, f, r) -> Printf.sprintf "line %d field %d := %S" l f r

let apply s = function
  | Flip (i, m) when s <> "" ->
    let i = i mod String.length s in
    String.mapi
      (fun j c -> if j = i then Char.chr (Char.code c lxor m) else c)
      s
  | Flip _ -> s
  | Truncate n -> String.sub s 0 (n mod (String.length s + 1))
  | Splice (l, f, r) ->
    let lines = Array.of_list (String.split_on_char '\n' s) in
    let l = l mod Array.length lines in
    let cols = Array.of_list (String.split_on_char ',' lines.(l)) in
    cols.(f mod Array.length cols) <- r;
    lines.(l) <- String.concat "," (Array.to_list cols);
    String.concat "\n" (Array.to_list lines)

let never_raises ~name ~dump parse =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:3000
       ~print:(fun ds -> String.concat "; " (List.map show_damage ds))
       gen_damage
       (fun ds ->
         let s = List.fold_left apply (dump ()) ds in
         match parse s with
         | Ok _ | Error _ -> true
         | exception e ->
           QCheck2.Test.fail_reportf "raised %s" (Printexc.to_string e)))

let profile_dump () = fst (Lazy.force dumps)
let store_dump () = snd (Lazy.force dumps)

(* The pristine dumps parse, so the fuzzers damage real inputs. *)
let pristine_dumps_parse () =
  (match Profile_io.of_string_meta (profile_dump ()) with
  | Ok (_, _, Some _) -> ()
  | Ok (_, _, None) -> Alcotest.fail "profile dump lost its meta line"
  | Error e -> Alcotest.failf "profile dump: %s" e);
  match Store.of_string (store_dump ()) with
  | Ok st ->
    Alcotest.(check bool) "store has models" true (st.Store.entries <> [])
  | Error e -> Alcotest.failf "model store: %s" e

let suite =
  [
    Alcotest.test_case "pristine dumps parse" `Quick pristine_dumps_parse;
    never_raises ~name:"format,3 profile dumps: Ok or Error, never raise"
      ~dump:profile_dump Profile_io.of_string_meta;
    never_raises ~name:"costmodel,1 stores: Ok or Error, never raise"
      ~dump:store_dump Store.of_string;
  ]
