module Event = Aprof_trace.Event

(* Tags 1/3/4 = Call/Read/Write, 5 = Block whose [arg] is the unit
   count ({!Event.Batch}'s numbering). *)
let cost_increment ~tag ~arg = match tag with 1 | 3 | 4 -> 1 | 5 -> arg | _ -> 0

module Counter = struct
  (* The counter table is consulted for every cost-bearing event, and
     events arrive in scheduler slices of the same thread, so a one-entry
     cache in front of the table turns almost every lookup into an int
     compare.  [last_tid] starts at [min_int] — no real tid — so the
     initial [last] ref is unreachable. *)
  type t = {
    tbl : (int, int ref) Hashtbl.t;
    mutable last_tid : int;
    mutable last : int ref;
  }

  let create () : t =
    { tbl = Hashtbl.create 8; last_tid = min_int; last = ref 0 }

  (* [Hashtbl.find] rather than [find_opt]: the hot path must not box a
     [Some] per cost-bearing event. *)
  let counter_slow t tid =
    let c =
      match Hashtbl.find t.tbl tid with
      | c -> c
      | exception Not_found ->
        let c = ref 0 in
        Hashtbl.add t.tbl tid c;
        c
    in
    t.last_tid <- tid;
    t.last <- c;
    c

  let counter t tid = if tid = t.last_tid then t.last else counter_slow t tid

  let on_raw t ~tag ~tid ~arg =
    let inc = cost_increment ~tag ~arg in
    if inc > 0 then begin
      let c = counter t tid in
      c := !c + inc
    end

  let cost t tid =
    if tid = t.last_tid then !(t.last)
    else
      match Hashtbl.find t.tbl tid with
      | c -> !c
      | exception Not_found -> 0

  let total t = Hashtbl.fold (fun _ c acc -> acc + !c) t.tbl 0
end

let simulated_time_ns rng ~ns_per_block ~jitter cost =
  let base = float_of_int cost *. ns_per_block in
  let noise = Aprof_util.Rng.gaussian rng ~mu:1.0 ~sigma:jitter in
  let overhead = 120. in
  Float.max (0.1 *. base) ((base *. noise) +. overhead)
