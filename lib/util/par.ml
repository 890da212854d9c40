type t = { jobs : int }

let available_parallelism () = max 1 (Domain.recommended_domain_count ())

let create ?jobs () =
  let jobs =
    match jobs with Some j -> j | None -> available_parallelism ()
  in
  if jobs < 1 then invalid_arg "Par.create: jobs must be >= 1";
  { jobs }

let jobs t = t.jobs

(* Workers pull task indices from a shared atomic counter, so uneven
   task costs balance without any pre-partitioning.  Domains are
   spawned per run: a spawn and join costs 0.1–1.1 ms on a 2-vCPU host
   (the first in a process the most), and forgoing resident workers
   means there is no lifecycle (shutdown, idle spin) to get wrong.  A
   pool of one job spawns nothing: the caller runs every task in index
   order. *)
let run t (tasks : (unit -> unit) array) =
  let n = Array.length tasks in
  let workers = max 1 (min t.jobs n) in
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
  match Array.find_map Fun.id failed with None -> () | Some e -> raise e
