type t = { jobs : int }

let available_parallelism () = max 1 (Par_backend.available ())

let create ?jobs () =
  let jobs =
    match jobs with Some j -> j | None -> available_parallelism ()
  in
  if jobs < 1 then invalid_arg "Par.create: jobs must be >= 1";
  { jobs }

let jobs t = t.jobs

let run t tasks =
  match Par_backend.run ~jobs:t.jobs tasks with
  | None -> ()
  | Some e -> raise e

let parallel_backend = Par_backend.is_parallel
