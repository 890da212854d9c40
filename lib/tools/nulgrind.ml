type t = { mutable events : int }

let create () = { events = 0 }

let on_batch t b = t.events <- t.events + Aprof_trace.Event.Batch.length b

let events t = t.events

let merge ~into src = into.events <- into.events + src.events

let tool_of t =
  {
    Tool.name = "nulgrind";
    on_batch = on_batch t;
    space_words = (fun () -> 1);
    summary =
      (fun () -> Printf.sprintf "nulgrind: %d events replayed" t.events);
  }

let tool () = tool_of (create ())

let factory = { Tool.tool_name = "nulgrind"; create = tool }

module Mergeable = struct
  type state = t

  let name = "nulgrind"
  let create = create
  let tool = tool_of
  let merge = merge

  (* No broadcast: every event must reach exactly one worker or the
     merged count would double. *)
  let broadcast = 0

  (* Counting is order-independent, so any worker may take any chunk —
     the only tool that load-balances below thread granularity. *)
  let sharding = `By_chunk
  let set_owner _ _ = ()
end
