module Batch = Event.Batch

exception Decode_error of string

type batch_source = unit -> Batch.t option

type batch_sink = {
  emit_batch : Batch.t -> unit;
  close_batch : unit -> unit;
}

let of_text_channel ic : batch_source =
  let b = Batch.create () in
  let lineno = ref 0 in
  let finished = ref false in
  let rec fill () =
    if not (Batch.is_full b) then
      match In_channel.input_line ic with
      | None -> finished := true
      | Some line ->
        incr lineno;
        if String.trim line <> "" then begin
          match Event.of_line line with
          | Ok ev -> Batch.push b ev
          | Error msg ->
            raise (Decode_error (Printf.sprintf "line %d: %s" !lineno msg))
        end;
        fill ()
  in
  fun () ->
    Batch.clear b;
    if not !finished then fill ();
    if Batch.is_empty b then None else Some b

let text_sink oc =
  {
    emit_batch =
      Batch.iter_events (fun ev ->
          output_string oc (Event.to_line ev);
          output_char oc '\n');
    close_batch = ignore;
  }

let drain (src : batch_source) f =
  let rec loop n =
    match src () with
    | None -> n
    | Some b ->
      let n = n + Batch.length b in
      f b;
      loop n
  in
  loop 0
