(* One profile and one name table behind one mutex.  A fold costs
   11–29 us (bodytrack 600 to dedup 400 traces) against the 4–12 ms a
   worker spends decoding and profiling the trace it folds, so the
   daemon's few workers rarely meet on the lock. *)

module Profile = Aprof_core.Profile

type t = {
  m : Mutex.t;
  profile : Profile.t;
  names : (int, string) Hashtbl.t;
  mutable folds : int;
}

let create () =
  {
    m = Mutex.create ();
    profile = Profile.create ();
    names = Hashtbl.create 64;
    folds = 0;
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let define t id name = locked t (fun () -> Hashtbl.replace t.names id name)

let fold t src =
  locked t (fun () ->
      Profile.merge_into ~into:t.profile src;
      t.folds <- t.folds + 1)

let snapshot t =
  locked t (fun () ->
      let copy = Profile.create () in
      Profile.merge_into ~into:copy t.profile;
      (copy, Hashtbl.copy t.names))

let folds t = locked t (fun () -> t.folds)
