(* Domain-backed parallel backend (OCaml >= 5).  Selected by a dune
   copy rule; the 4.14 build gets the sequential twin instead, so this
   file must be the only place that names [Domain]. *)

let available () = Domain.recommended_domain_count ()

let is_parallel = true

(* Workers pull task indices from a shared atomic counter, so uneven
   task costs balance without any pre-partitioning.  Domains are
   spawned per run: a spawn and join costs 0.1–1.1 ms on a 2-vCPU host
   (the first in a process the most), and forgoing resident workers
   means there is no lifecycle (shutdown, idle spin) to get wrong. *)
let run ~jobs (tasks : (unit -> unit) array) : exn option =
  let n = Array.length tasks in
  let workers = max 1 (min jobs n) in
  let next = Atomic.make 0 in
  (* First exception wins by task index, so failures are reported
     deterministically no matter which domain hit one first. *)
  let failed : exn option array = Array.make n None in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (match tasks.(i) () with
        | () -> ()
        | exception e -> failed.(i) <- Some e);
        loop ()
      end
    in
    loop ()
  in
  let domains = Array.init (workers - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join domains;
  Array.fold_left
    (fun acc e -> match acc with Some _ -> acc | None -> e)
    None failed
