module Batch = Event.Batch

exception Decode_error of string

type batch_sink = {
  emit_batch : Batch.t -> unit;
  close_batch : unit -> unit;
}

let read_text ic f =
  let b = Batch.create () in
  let flush () =
    if not (Batch.is_empty b) then begin
      f b;
      Batch.clear b
    end
  in
  let rec go lineno events =
    match In_channel.input_line ic with
    | None ->
      flush ();
      events
    | Some line when String.trim line = "" -> go (lineno + 1) events
    | Some line -> (
      match Event.of_line line with
      | Ok ev ->
        Batch.push b ev;
        if Batch.is_full b then flush ();
        go (lineno + 1) (events + 1)
      | Error msg ->
        raise (Decode_error (Printf.sprintf "line %d: %s" lineno msg)))
  in
  go 1 0

let text_sink oc =
  {
    emit_batch =
      Batch.iter_events (fun ev ->
          output_string oc (Event.to_line ev);
          output_char oc '\n');
    close_batch = ignore;
  }
