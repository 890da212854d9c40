module Event = Aprof_trace.Event
module Shadow = Aprof_shadow.Shadow_memory

type error =
  | Invalid_read of { tid : int; addr : int }
  | Invalid_write of { tid : int; addr : int }
  | Uninitialized_read of { tid : int; addr : int }
  | Invalid_free of { tid : int; addr : int }
  | Leak of { addr : int; len : int }

let pp_error ppf = function
  | Invalid_read { tid; addr } ->
    Format.fprintf ppf "invalid read of %#x by thread %d" addr tid
  | Invalid_write { tid; addr } ->
    Format.fprintf ppf "invalid write of %#x by thread %d" addr tid
  | Uninitialized_read { tid; addr } ->
    Format.fprintf ppf "read of uninitialized %#x by thread %d" addr tid
  | Invalid_free { tid; addr } ->
    Format.fprintf ppf "invalid free of %#x by thread %d" addr tid
  | Leak { addr; len } ->
    Format.fprintf ppf "leak: %d cells at %#x still allocated" len addr

(* Per-cell shadow state, one word per cell:
   0 = untracked, 1 = addressable, 2 = addressable + defined. *)
let s_untracked = 0
let s_alloc = 1
let s_defined = 2

type t = {
  shadow : Shadow.t;
  blocks : (int, int) Hashtbl.t; (* base -> length of live allocations *)
  mutable errs : error list;
  seen : (error, unit) Hashtbl.t; (* dedup identical reports *)
}

type state = t

let name = "memcheck"

let create () =
  {
    shadow = Shadow.create ();
    blocks = Hashtbl.create 64;
    errs = [];
    seen = Hashtbl.create 64;
  }

let report t err =
  if not (Hashtbl.mem t.seen err) then begin
    Hashtbl.add t.seen err ();
    t.errs <- err :: t.errs
  end

(* Tracked allocations start at the VM allocator's base; below it,
   memory is considered static and pre-initialized. *)
let heap_base = 0x1000
let is_static addr = addr < heap_base

let check_read t tid addr =
  if not (is_static addr) then begin
    match Shadow.get t.shadow addr with
    | s when s = s_defined -> ()
    | s when s = s_alloc -> report t (Uninitialized_read { tid; addr })
    | _ -> report t (Invalid_read { tid; addr })
  end

let check_write t tid addr =
  if not (is_static addr) then begin
    if Shadow.get t.shadow addr = s_untracked then
      report t (Invalid_write { tid; addr })
    else Shadow.set t.shadow addr s_defined
  end

(* Dispatch on the packed fields; tag literals are {!Event.Batch}'s:
   3 Read, 4 Write, 6 U2k, 7 K2u, 10 Alloc, 11 Free. *)
let on_raw t ~tag ~tid ~arg ~len =
  match tag with
  | 3 -> check_read t tid arg
  | 4 -> check_write t tid arg
  | 10 ->
    Hashtbl.replace t.blocks arg len;
    Shadow.set_range t.shadow ~addr:arg ~len s_alloc
  | 11 -> (
    match Hashtbl.find t.blocks arg with
    | exception Not_found -> report t (Invalid_free { tid; addr = arg })
    | len ->
      Hashtbl.remove t.blocks arg;
      Shadow.set_range t.shadow ~addr:arg ~len s_untracked)
  | 7 ->
    (* The kernel defined the buffer; flag writes landing outside live
       allocations like ordinary stores. *)
    for a = arg to arg + len - 1 do
      check_write t 0 a
    done
  | 6 ->
    for a = arg to arg + len - 1 do
      check_read t tid a
    done
  | _ -> ()

let on_batch t b =
  let module B = Event.Batch in
  let tags = B.tags b and tids = B.tids b in
  let args = B.args b and lens = B.lens b in
  for i = 0 to B.length b - 1 do
    on_raw t ~tag:(Array.unsafe_get tags i) ~tid:(Array.unsafe_get tids i)
      ~arg:(Array.unsafe_get args i) ~len:(Array.unsafe_get lens i)
  done

let errors t = List.rev t.errs

let leaks t =
  Hashtbl.fold (fun addr len acc -> Leak { addr; len } :: acc) t.blocks []
  |> List.sort compare

let merge ~into src = List.iter (report into) (errors src)

let space_words t = Shadow.space_words t.shadow + (2 * Hashtbl.length t.blocks)

let summary t =
  Printf.sprintf "memcheck: %d errors, %d leaked blocks"
    (List.length (errors t))
    (List.length (leaks t))

(* Writes, allocations, frees and kernel fills all mutate the global
   addressability/definedness state that any thread's next access is
   checked against, so every worker replays them; with those broadcast,
   each worker holds the full shadow and block table, and merging
   reduces to deduplicating the error reports. *)
let sharding =
  let module B = Aprof_trace.Event.Batch in
  Tool.By_thread
    {
      broadcast =
        (1 lsl B.tag_write) lor (1 lsl B.tag_alloc) lor (1 lsl B.tag_free)
        lor (1 lsl B.tag_kernel_to_user);
      set_owner = (fun _ _ -> ());
      merge;
    }
