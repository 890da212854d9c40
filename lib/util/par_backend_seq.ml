(* Sequential parallel backend (OCaml 4.x, no Domain).  Same observable
   semantics as the domain backend with one worker: tasks run in index
   order, every task runs, and the first exception is returned. *)

let available () = 1

let is_parallel = false

let run ~jobs:_ (tasks : (unit -> unit) array) : exn option =
  Array.fold_left
    (fun failed f ->
      match f () with
      | () -> failed
      | exception e -> if Option.is_none failed then Some e else failed)
    None tasks
