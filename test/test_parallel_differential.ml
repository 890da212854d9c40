(* The differential that licenses [aprof replay --profiler {drms,naive}
   -j N]: parallel replay through the sharded engine must produce
   exactly the sequential profile — same points, same activation
   counts, same attribution counters — for 50 random VM programs under
   every scheduler policy at N ∈ {2, 3, 4}, and for real workload
   traces round-tripped through the on-disk chunk index. *)

open Helpers
module Interp = Aprof_vm.Interp
module Workload = Aprof_workloads.Workload
module Registry = Aprof_workloads.Registry
module Stream = Aprof_trace.Trace_stream
module Codec = Aprof_trace.Trace_codec
module Tool = Aprof_tools.Tool
module Par = Aprof_util.Par
module Drms = Aprof_core.Drms_profiler
module Naive = Aprof_core.Naive_drms

let jobs_list = [ 2; 3; 4 ]

let check_shards ~label ~trace_events shards =
  let drms1, naive1 =
    (* Sequential baselines through the same engine entry point. *)
    let pool = Par.create ~jobs:1 () in
    let d, _, _ =
      Tool.replay_parallel ~pool ~jobs:1 ~shards
        (module Aprof_tools.Aprof_adapters.Drms)
    in
    let n, _, _ =
      Tool.replay_parallel ~pool ~jobs:1 ~shards
        (module Aprof_tools.Aprof_adapters.Naive)
    in
    (Drms.finish d, Naive.finish n)
  in
  List.iter
    (fun jobs ->
      let pool = Par.create ~jobs () in
      let st, n, _ =
        Tool.replay_parallel ~pool ~jobs ~shards
          (module Aprof_tools.Aprof_adapters.Drms)
      in
      Alcotest.(check int)
        (Printf.sprintf "%s -j%d: unique events" label jobs)
        trace_events n;
      let p = Drms.finish st in
      check_profiles_equal
        (Printf.sprintf "%s -j%d: drms = -j1" label jobs)
        drms1 p;
      check_ops_equal
        (Printf.sprintf "%s -j%d: drms attribution = -j1" label jobs)
        drms1 p;
      let st, _, _ =
        Tool.replay_parallel ~pool ~jobs ~shards
          (module Aprof_tools.Aprof_adapters.Naive)
      in
      check_profiles_equal
        (Printf.sprintf "%s -j%d: naive = -j1" label jobs)
        naive1
        (Naive.finish st))
    jobs_list

let check_program ~sched_name ~scheduler seed =
  let w =
    { Workload.programs = Test_vm_differential.gen_program seed;
        devices = Test_vm_differential.gen_devices () }
  in
  let result = Workload.run ~scheduler w ~seed in
  let trace = result.Interp.trace in
  (* Small chunks, so even these short traces span several. *)
  with_shards ~chunk_bytes:256 trace
    (check_shards
       ~label:(Printf.sprintf "seed %d (%s)" seed sched_name)
       ~trace_events:(Aprof_trace.Trace.length trace))

let program_tests =
  List.map
    (fun (sched_name, scheduler) ->
      Alcotest.test_case
        (Printf.sprintf "50 random programs (%s), -j {2,3,4}" sched_name)
        `Slow
        (fun () ->
          for seed = 0 to 49 do
            check_program ~sched_name ~scheduler seed
          done))
    Test_vm_differential.schedulers

(* Same differential, but through the real on-disk path: record the
   trace to a binary file (chunked, with the ATRI shard index) and
   shard via {!Tool.Shards.of_file} — seeks, checksums and the shared
   name table included. *)
let test_file_roundtrip () =
  List.iter
    (fun name ->
      let spec = Option.get (Registry.find name) in
      let result =
        Workload.run_spec
          ~scheduler:
            (Aprof_vm.Scheduler.Random_preemptive
               { min_slice = 4; max_slice = 32 })
          spec ~threads:3 ~scale:120 ~seed:5
      in
      let trace = result.Interp.trace in
      let path = Filename.temp_file "aprof_pardiff" ".atrc" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_bin path (fun oc ->
              let sink =
                Codec.batch_writer
                  ~routine_name:
                    (Aprof_trace.Routine_table.name result.Interp.routines)
                  oc
              in
              Helpers.write_batches trace sink);
          match Tool.Shards.of_file path with
          | None -> Alcotest.failf "%s: recorded file has no chunk index" name
          | Some shards ->
            check_shards ~label:(name ^ " (file)")
              ~trace_events:(Aprof_trace.Trace.length trace) shards))
    [ "mysqlslap"; "dedup" ]

(* A sharded replay picks each shard's chunks from the index's [tag_mask]
   and [tids] alone, so a footer that misstates them must be refused,
   never trusted into skipping events.  Every bit of every footer byte
   (trailer included) of a multi-chunk, four-thread v2 and v3 trace is
   flipped in turn: [-j 5] with rms, drms and memcheck over the damaged
   file must print what the pristine file replays to sequentially, or
   raise [Decode_error]; the failure lists every other outcome. *)
let footer_flips_never_mislead () =
  let spec = Option.get (Registry.find "swaptions") in
  let result = Workload.run_spec spec ~threads:4 ~scale:30 ~seed:1 in
  let trace = result.Interp.trace in
  let routine_name = Aprof_trace.Routine_table.name result.Interp.routines in
  (* Five shards on two domains: the shards' filters are under test,
     and five domains on a small host would only spin. *)
  let pool = Par.create ~jobs:2 () in
  let profiled (module P : Tool.Profiler) ~jobs shards =
    let st, n, _ =
      Tool.replay_parallel ~pool ~jobs ~shards
        (module P : Tool.S with type state = P.state)
    in
    (n, Aprof_core.Profile_io.to_string (P.finish st))
  in
  let outcomes ~jobs shards =
    let memcheck =
      let module M = Aprof_tools.Memcheck_lite in
      let st, n, _ = Tool.replay_parallel ~pool ~jobs ~shards (module M) in
      (n, M.summary st)
    in
    [
      profiled (module Aprof_tools.Aprof_adapters.Rms) ~jobs shards;
      profiled (module Aprof_tools.Aprof_adapters.Drms) ~jobs shards;
      memcheck;
    ]
  in
  let path = Filename.temp_file "aprof_footer_flip" ".atrc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      List.iter
        (fun (format_version, chunk_bytes) ->
          Out_channel.with_open_bin path (fun oc ->
              let sink =
                Codec.batch_writer ~chunk_bytes ~format_version ~routine_name oc
              in
              Aprof_trace.Trace.replay trace sink.Stream.emit_batch;
              sink.Stream.close_batch ());
          let pristine = In_channel.with_open_bin path In_channel.input_all in
          let shards = Option.get (Tool.Shards.of_file path) in
          Alcotest.(check bool)
            (Printf.sprintf "v%d: several chunks" format_version)
            true
            (Array.length shards.Tool.Shards.chunks >= 4);
          let expected = outcomes ~jobs:1 shards in
          let total = String.length pristine in
          let footer_off =
            let v = ref 0 in
            for i = 7 downto 0 do
              v := (!v lsl 8) lor Char.code pristine.[total - 12 + i]
            done;
            !v
          in
          let misled = ref [] in
          for pos = footer_off to total - 1 do
            for bit = 0 to 7 do
              let b = Bytes.of_string pristine in
              Bytes.set b pos
                (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
              Out_channel.with_open_bin path (fun oc -> output_bytes oc b);
              match Tool.Shards.of_file path with
              | exception Stream.Decode_error _ -> ()
              | None -> ()
              | Some shards -> (
                match outcomes ~jobs:5 shards with
                | exception Stream.Decode_error _ -> ()
                | exception _ -> misled := (pos, bit) :: !misled
                | got ->
                  if got <> expected then misled := (pos, bit) :: !misled)
            done
          done;
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "v%d: footer flips that changed -j 5's result"
               format_version)
            [] (List.rev !misled))
        [ (2, 1024); (3, 256) ])

(* The index check on its own: chunk 1's entry misstates the chunk —
   one present tag cleared from its [tag_mask], or its first thread
   dropped from its [tids] — so a thread-sharded replay, which reads
   that chunk in every shard, must refuse it and name the check, in v2
   and v3 alike. *)
let misstated_entry_is_refused () =
  let spec = Option.get (Registry.find "swaptions") in
  let result = Workload.run_spec spec ~threads:4 ~scale:30 ~seed:1 in
  let pool = Par.create ~jobs:2 () in
  List.iter
    (fun format_version ->
      with_shards ~format_version ~chunk_bytes:512 result.Interp.trace
        (fun shards ->
          let chunks = shards.Tool.Shards.chunks in
          Alcotest.(check bool) "several chunks" true
            (Array.length chunks >= 2);
          let refused what (entry : Codec.shard) =
            let chunks =
              Array.mapi (fun i c -> if i = 1 then entry else c) chunks
            in
            match
              Tool.replay_parallel ~pool ~jobs:2
                ~shards:{ shards with Tool.Shards.chunks }
                (module Aprof_tools.Aprof_adapters.Rms)
            with
            | _ -> Alcotest.failf "v%d, %s: replayed" format_version what
            | exception Stream.Decode_error m ->
              if not (Test_codec.contains ~sub:"is not in its index entry" m)
              then
                Alcotest.failf "v%d, %s: refused for another reason: %s"
                  format_version what m
          in
          let sh = chunks.(1) in
          let tag =
            List.find
              (fun t -> (sh.Codec.tag_mask lsr t) land 1 = 1)
              (List.init 15 Fun.id)
          in
          refused "tag cleared"
            { sh with
              Codec.tag_mask = sh.Codec.tag_mask land lnot (1 lsl tag) };
          refused "thread dropped"
            { sh with
              Codec.tids =
                Array.sub sh.Codec.tids 1 (Array.length sh.Codec.tids - 1)
            }))
    [ 2; 3 ]

let suite =
  program_tests
  @ [ Alcotest.test_case "workload files via the chunk index" `Quick
        test_file_roundtrip;
      Alcotest.test_case "footer bit flips never mislead -j 5" `Quick
        footer_flips_never_mislead;
      Alcotest.test_case "a misstated index entry is refused" `Quick
        misstated_entry_is_refused ]
