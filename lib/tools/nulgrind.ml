type t = { mutable events : int }
type state = t

let name = "nulgrind"
let create () = { events = 0 }

let on_batch t b = t.events <- t.events + Aprof_trace.Event.Batch.length b

let events t = t.events

let merge ~into src = into.events <- into.events + src.events
let space_words _ = 1
let summary t = Printf.sprintf "nulgrind: %d events replayed" t.events

(* Counting is order-independent, so any worker may take any chunk —
   the only tool that load-balances below thread granularity.  Nothing
   is broadcast: every event must reach exactly one worker or the
   merged count would double. *)
let sharding = Tool.By_chunk { merge }
