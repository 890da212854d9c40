(* Round-trip oracles for the two text dumps, after faast.js's cost test,
   which parses its own CSV back: over generated profiles and model
   stores with run metadata, [of_string (to_string x)] is [x], or
   [to_string] refuses [x] with [Invalid_argument] — and refuses it only
   when [x] holds text the layout cannot carry (a CR or LF anywhere, a
   comma in a field that is not last) or a model whose fields contradict
   each other.  Names are arbitrary bytes, ints reach [max_int] and
   [min_int], floats include nan, infinities, [-0.] and subnormals;
   floats compare bit for bit, except that every nan equals every nan. *)

module Profile = Aprof_core.Profile
module Profile_io = Aprof_core.Profile_io
module Run_meta = Aprof_core.Run_meta
module Store = Aprof_analysis.Model_store
module Basis = Aprof_analysis.Fit_basis

let name =
  let open QCheck2.Gen in
  let c =
    frequency
      [
        (20, char);
        (4, oneofl [ ' '; '\t'; '\012'; ','; '"' ]);
        (1, oneofl [ '\r'; '\n' ]);
      ]
  in
  frequency
    [
      (1, oneofl [ ""; " "; "r "; " r"; "r\t"; "r\012"; "a,b" ]);
      (4, string_size ~gen:c (int_range 0 6));
    ]

let edge_int =
  QCheck2.Gen.(frequency [ (1, oneofl [ max_int; min_int; 0; -1 ]); (3, int) ])

let edge_float =
  QCheck2.Gen.(
    frequency
      [
        ( 1,
          oneofl
            [ nan; -.nan; infinity; neg_infinity; 0.; -0.; 5e-324;
              2.2250738585072009e-308; Float.min_float; max_float ] );
        (3, float);
      ])

let meta =
  QCheck2.Gen.(
    option
      (let+ workload = name
       and+ seed = edge_int
       and+ scale = edge_int
       and+ threads = edge_int
       and+ scheduler = name in
       { Run_meta.workload; seed; scale; threads; scheduler }))

let feq a b =
  (Float.is_nan a && Float.is_nan b)
  || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let writable s = not (String.contains s '\n' || String.contains s '\r')

let meta_writable = function
  | None -> true
  | Some m ->
    writable m.Run_meta.workload
    && (not (String.contains m.Run_meta.workload ','))
    && writable m.Run_meta.scheduler

let show_meta = function
  | None -> "no meta"
  | Some m ->
    Printf.sprintf "meta %S %d %d %d %S" m.Run_meta.workload m.Run_meta.seed
      m.Run_meta.scale m.Run_meta.threads m.Run_meta.scheduler

(* [check ~representable ~write ~read ~equal x]: the property itself. *)
let check ~representable ~write ~read ~equal x =
  match write x with
  | exception Invalid_argument e ->
    if representable x then
      QCheck2.Test.fail_reportf "refused a representable value: %s" e
    else true
  | s -> (
    match read s with
    | Ok y ->
      equal x y || QCheck2.Test.fail_reportf "read back differently:\n%s" s
    | Error e -> QCheck2.Test.fail_reportf "%s\nin:\n%s" e s)

(* ---- Profiles ---- *)

(* Cell keys reach past the 32-bit routine field of [Profile]'s cell
   code, and tid 2^30 is the code a fresh profile's lookup cache holds. *)
let routine_ids = [| 0; 1; 2; 65535; 0xFFFFFFFF |]

type cell = {
  tid : int;
  routine : int;
  acts : int;
  sums : float * float * float;
  ops : int * int * int;
  points : ([ `Drms | `Rms ] * Profile.point) list;
}

let cell =
  let open QCheck2.Gen in
  let point =
    let+ metric = oneofl [ `Drms; `Rms ]
    and+ input = edge_int
    and+ calls = edge_int
    and+ max_cost = edge_int
    and+ min_cost = edge_int
    and+ sum_cost = edge_float
    and+ sum_cost_sq = edge_float in
    ( metric,
      { Profile.input; calls; max_cost; min_cost; sum_cost; sum_cost_sq } )
  in
  let+ tid = oneofl [ 0; 1; 3; 1 lsl 30; max_int ]
  and+ routine = oneofa routine_ids
  and+ acts = edge_int
  and+ sums = triple edge_float edge_float edge_float
  and+ ops = triple edge_int edge_int edge_int
  and+ points = list_size (int_range 0 4) point in
  { tid; routine; acts; sums; ops; points }

let build cells =
  let p = Profile.create () in
  List.iter
    (fun c ->
      let sum_rms, sum_drms, total_cost = c.sums
      and plain, induced_thread, induced_external = c.ops in
      let tid = c.tid and routine = c.routine in
      Profile.restore_aggregates p ~tid ~routine ~activations:c.acts ~sum_rms
        ~sum_drms ~total_cost;
      Profile.record_ops p ~tid ~routine ~plain ~induced_thread
        ~induced_external;
      List.iter
        (fun (metric, pt) -> Profile.restore_point p ~tid ~routine ~metric pt)
        c.points)
    cells;
  p

let point_equal (a : Profile.point) (b : Profile.point) =
  a.input = b.input && a.calls = b.calls && a.max_cost = b.max_cost
  && a.min_cost = b.min_cost && feq a.sum_cost b.sum_cost
  && feq a.sum_cost_sq b.sum_cost_sq

let data_equal (a : Profile.routine_data) (b : Profile.routine_data) =
  List.equal point_equal a.drms_points b.drms_points
  && List.equal point_equal a.rms_points b.rms_points
  && a.activations = b.activations && feq a.sum_rms b.sum_rms
  && feq a.sum_drms b.sum_drms && feq a.total_cost b.total_cost
  && a.first_read_ops = b.first_read_ops
  && a.induced_thread_ops = b.induced_thread_ops
  && a.induced_external_ops = b.induced_external_ops

let profile_equal a b =
  let sorted p = List.sort compare (Profile.keys p) in
  List.equal
    (fun k k' ->
      k = k'
      && data_equal
           (Option.get (Profile.data a k))
           (Option.get (Profile.data b k')))
    (sorted a) (sorted b)

type dump = {
  cells : cell list;
  names : string array option;  (* by index in [routine_ids] *)
  run : Run_meta.t option;
}

let dump =
  QCheck2.Gen.(
    let+ cells = list_size (int_range 0 6) cell
    and+ names = option (array_repeat (Array.length routine_ids) name)
    and+ run = meta in
    { cells; names; run })

let name_of names r =
  let rec index i = if routine_ids.(i) = r then i else index (i + 1) in
  names.(index 0)

let show_dump d =
  let p = build d.cells in
  Printf.sprintf "%d cells, names %s, %s"
    (List.length (Profile.keys p))
    (match d.names with
    | None -> "none"
    | Some ns ->
      String.concat " " (Array.to_list (Array.map (Printf.sprintf "%S") ns)))
    (show_meta d.run)

let profile_roundtrip =
  QCheck2.Test.make ~name:"profile dumps read back as written" ~count:1000
    ~print:show_dump dump (fun d ->
      let p = build d.cells in
      let routine_name = Option.map name_of d.names in
      let names_in_use =
        match routine_name with
        | None -> []
        | Some name -> List.map (fun r -> (r, name r)) (Profile.routines p)
      in
      check
        ~representable:(fun () ->
          List.for_all (fun (_, n) -> writable n) names_in_use
          && meta_writable d.run)
        ~write:(fun () -> Profile_io.to_string ?routine_name ?meta:d.run p)
        ~read:Profile_io.of_string
        ~equal:(fun () (p', names, run) ->
          profile_equal p p' && names = names_in_use && run = d.run)
        ())

(* ---- Model stores ---- *)

let entry =
  let open QCheck2.Gen in
  let* cls = oneofl Basis.all in
  let+ routine = name
  and+ metric = oneofl [ `Drms; `Rms ]
  and+ coefs =
    array_size
      (frequencyl
         [ (9, Basis.param_count cls); (1, Basis.param_count cls + 1) ])
      edge_float
  and+ n_points = edge_int
  and+ r2 = edge_float
  and+ confidence = edge_float
  and+ exponent = option (triple edge_float edge_float edge_float) in
  { Store.routine; metric; cls; coefs; n_points; r2; confidence; exponent }

let store =
  QCheck2.Gen.(
    let+ entries = list_size (int_range 0 5) entry and+ run = meta in
    Store.create ?meta:run entries)

let entry_representable (e : Store.entry) =
  writable e.routine
  && Array.length e.coefs = Basis.param_count e.cls
  && match e.exponent with Some (k, _, _) -> not (Float.is_nan k) | None -> true

let entry_equal (a : Store.entry) (b : Store.entry) =
  a.routine = b.routine && a.metric = b.metric && a.cls = b.cls
  && Array.length a.coefs = Array.length b.coefs
  && Array.for_all2 feq a.coefs b.coefs
  && a.n_points = b.n_points && feq a.r2 b.r2
  && feq a.confidence b.confidence
  &&
  match (a.exponent, b.exponent) with
  | None, None -> true
  | Some (k, lo, hi), Some (k', lo', hi') ->
    feq k k' && feq lo lo' && feq hi hi'
  | _ -> false

let show_store (st : Store.t) =
  String.concat "; "
    (show_meta st.meta
    :: List.map
         (fun (e : Store.entry) ->
           Printf.sprintf "%S %s %s [%s] k=%s" e.routine
             (Profile_io.metric_name e.metric) (Basis.token e.cls)
             (String.concat " "
                (Array.to_list (Array.map string_of_float e.coefs)))
             (match e.exponent with
             | Some (k, _, _) -> string_of_float k
             | None -> "-"))
         st.entries)

let store_roundtrip =
  QCheck2.Test.make ~name:"model stores read back as written" ~count:1000
    ~print:show_store store (fun st ->
      check
        ~representable:(fun (st : Store.t) ->
          List.for_all entry_representable st.entries && meta_writable st.meta)
        ~write:Store.to_string ~read:Store.of_string
        ~equal:(fun (a : Store.t) (b : Store.t) ->
          a.meta = b.meta && List.equal entry_equal a.entries b.entries)
        st)

let suite =
  List.map QCheck_alcotest.to_alcotest [ profile_roundtrip; store_roundtrip ]
