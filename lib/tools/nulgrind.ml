type t = { mutable events : int }
type state = t

let name = "nulgrind"
let create () = { events = 0 }

(* Look at every event's tag and do nothing with it: the per-event walk
   each tool's dispatch starts from, with no analysis behind it.  Tags
   are never negative, so the count is the batch length. *)
let on_batch t b =
  let tags = Aprof_trace.Event.Batch.tags b in
  let n = ref 0 in
  for i = 0 to Aprof_trace.Event.Batch.length b - 1 do
    if Array.unsafe_get tags i >= 0 then incr n
  done;
  t.events <- t.events + !n

let events t = t.events

let merge ~into src = into.events <- into.events + src.events
let space_words _ = 1
let summary t = Printf.sprintf "nulgrind: %d events replayed" t.events

(* Counting is order-independent, so any worker may take any chunk —
   the only tool that load-balances below thread granularity.  Nothing
   is broadcast: every event must reach exactly one worker or the
   merged count would double. *)
let sharding = Tool.By_chunk { merge }
