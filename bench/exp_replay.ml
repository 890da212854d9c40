(* Replay-path benchmark: the packed batch path, per tool.

   A PARSEC miniature is sized to the target event count and recorded
   to binary trace files, then replayed into every standard tool from
   the v2 file through the one event path (decode -> Event.Batch ->
   on_batch), and into nulgrind and aprof-drms from every format.  A
   cell times decode + on_batch, not the tool's [create].  The figures
   of merit are events/second and minor-words/event, the latter from one
   untimed replay per (tool, format) cell: a tool that dispatches on the
   raw fields should allocate close to nothing per event, and neither
   should the decoder of any format. *)

module Codec = Aprof_trace.Trace_codec
module Tool = Aprof_tools.Tool
module Harness = Aprof_tools.Harness

(* v3 must not lose throughput against v2: its chunks are an order of
   magnitude smaller and the repeat decoder replays memoized template
   rows instead of re-parsing varints, so the bytes saved must show up
   as events per second, not just disk.  The entropy-coded variant is
   included to price the archival option. *)
let formats = [ ("v2", (2, false)); ("v3", (3, false)); ("v3+ent", (3, true)) ]

let run ~quick ppf =
  Exp_common.section ppf "replay: batched hot path";
  let target = if quick then 150_000 else 2_400_000 in
  let paths, n_events =
    Exp_common.record ~target "blackscholes" (List.map snd formats)
  in
  let files = List.combine (List.map fst formats) paths in
  let v2 = List.hd paths in
  Format.fprintf ppf "workload: blackscholes, %d events@." n_events;
  (* One replay of [path] into a fresh [M]: [f] wraps decode + on_batch,
     so a timer given as [f] leaves [create] out. *)
  let replay (module M : Tool.S) path f =
    let st = M.create () in
    In_channel.with_open_bin path (fun ic ->
        f (fun () ->
            let _names, n = Codec.read ~on_corrupt:`Fail ic (M.on_batch st) in
            if n <> n_events then
              failwith "replay bench: replay count mismatch"))
  in
  (* Minor words per event are deterministic: one untimed replay. *)
  let words_per_event (module M : Tool.S) path =
    let m0 = Gc.minor_words () in
    replay (module M) path (fun f -> f ());
    (Gc.minor_words () -. m0) /. float_of_int n_events
  in
  let tools =
    List.filter (fun (module M : Tool.S) -> Exp_common.keep_tool M.name)
      Harness.tools
  in
  let swept (module M : Tool.S) =
    M.name = "nulgrind" || M.name = "aprof-drms"
  in
  (* Every tool on v2, then the other formats for the swept tools; the
     sweep's v2 rows are the v2 cells. *)
  let configs =
    List.map (fun tool -> (tool, "v2")) tools
    @ List.concat_map
        (fun tool ->
          if swept tool then
            List.map (fun (label, _) -> (tool, label)) (List.tl files)
          else [])
        tools
  in
  let rounds = Exp_common.rounds ~quick in
  let samples =
    Exp_common.sample ~rounds
      (List.map
         (fun (tool, label) -> replay tool (List.assoc label files))
         configs)
  in
  let mev name label =
    Exp_common.rate n_events
      (List.assoc (name, label)
         (List.map2
            (fun ((module M : Tool.S), label) s -> ((M.name, label), s))
            configs samples))
  in
  Format.fprintf ppf "  %-12s %12s %12s@." "" "Mev/s" "w/ev";
  List.iter
    (fun (module M : Tool.S) ->
      let mev = mev M.name "v2" and w = words_per_event (module M) v2 in
      Format.fprintf ppf "  %-12s %12.1f %12.2f@." M.name mev.median w;
      Exp_common.emit_row ~experiment:"replay" ~rounds
        ([
           ("tool", Exp_common.String M.name);
           ("events", Exp_common.Int n_events);
         ]
        @ Exp_common.metric "batch_mev_per_s" mev
        @ [ ("batch_minor_words_per_event", Exp_common.Float w) ]))
    tools;
  Format.fprintf ppf "@.trace formats (batch replay):@.";
  Format.fprintf ppf "  %-12s %-8s %12s %12s %12s@." "tool" "format" "bytes"
    "Mev/s" "w/ev";
  List.iter
    (fun (module M : Tool.S) ->
      List.iter
        (fun (label, path) ->
          let mev = mev M.name label and w = words_per_event (module M) path in
          let bytes =
            Int64.to_int (In_channel.with_open_bin path In_channel.length)
          in
          Format.fprintf ppf "  %-12s %-8s %12d %12.1f %12.2f@." M.name label
            bytes mev.median w;
          Exp_common.emit_row ~experiment:"replay" ~rounds
            ([
               ("tool", Exp_common.String M.name);
               ("format", Exp_common.String label);
               ("events", Exp_common.Int n_events);
               ("bytes", Exp_common.Int bytes);
             ]
            @ Exp_common.metric "batch_mev_per_s" mev
            @ [ ("batch_minor_words_per_event", Exp_common.Float w) ]))
        files)
    (List.filter swept tools);
  List.iter Sys.remove paths
