type tid = int
type addr = int
type routine = int

type t =
  | Call of { tid : tid; routine : routine }
  | Return of { tid : tid }
  | Read of { tid : tid; addr : addr }
  | Write of { tid : tid; addr : addr }
  | Block of { tid : tid; units : int }
  | User_to_kernel of { tid : tid; addr : addr; len : int }
  | Kernel_to_user of { tid : tid; addr : addr; len : int }
  | Acquire of { tid : tid; lock : int }
  | Release of { tid : tid; lock : int }
  | Alloc of { tid : tid; addr : addr; len : int }
  | Free of { tid : tid; addr : addr; len : int }
  | Thread_start of { tid : tid }
  | Thread_exit of { tid : tid }
  | Switch_thread of { tid : tid }

(* Decode-edge bounds on identifier payloads.  Consumers trust these:
   tools keep per-thread state dense in [tid] and pack it into 16-bit
   epoch fields (Helgrind_lite), and lockset memo keys pack the lock id
   below bit 31 (Lockset) — so the trace contract bounds both, and every
   decoder turns an out-of-range value into a clean decode error instead
   of an exception (or an unsafe access) deep inside a tool. *)
let max_tid = 0xFFFF
let max_lock = (1 lsl 31) - 1

let tid = function
  | Call { tid; _ }
  | Return { tid }
  | Read { tid; _ }
  | Write { tid; _ }
  | Block { tid; _ }
  | User_to_kernel { tid; _ }
  | Kernel_to_user { tid; _ }
  | Acquire { tid; _ }
  | Release { tid; _ }
  | Alloc { tid; _ }
  | Free { tid; _ }
  | Thread_start { tid }
  | Thread_exit { tid }
  | Switch_thread { tid } ->
    tid

let is_switch = function
  | Switch_thread _ -> true
  | Call _ | Return _ | Read _ | Write _ | Block _ | User_to_kernel _
  | Kernel_to_user _ | Acquire _ | Release _ | Alloc _ | Free _
  | Thread_start _ | Thread_exit _ ->
    false

let pp ppf = function
  | Call { tid; routine } -> Format.fprintf ppf "call(t%d, r%d)" tid routine
  | Return { tid } -> Format.fprintf ppf "return(t%d)" tid
  | Read { tid; addr } -> Format.fprintf ppf "read(t%d, %#x)" tid addr
  | Write { tid; addr } -> Format.fprintf ppf "write(t%d, %#x)" tid addr
  | Block { tid; units } -> Format.fprintf ppf "block(t%d, %d)" tid units
  | User_to_kernel { tid; addr; len } ->
    Format.fprintf ppf "userToKernel(t%d, %#x, %d)" tid addr len
  | Kernel_to_user { tid; addr; len } ->
    Format.fprintf ppf "kernelToUser(t%d, %#x, %d)" tid addr len
  | Acquire { tid; lock } -> Format.fprintf ppf "acquire(t%d, l%d)" tid lock
  | Release { tid; lock } -> Format.fprintf ppf "release(t%d, l%d)" tid lock
  | Alloc { tid; addr; len } ->
    Format.fprintf ppf "alloc(t%d, %#x, %d)" tid addr len
  | Free { tid; addr; len } ->
    Format.fprintf ppf "free(t%d, %#x, %d)" tid addr len
  | Thread_start { tid } -> Format.fprintf ppf "threadStart(t%d)" tid
  | Thread_exit { tid } -> Format.fprintf ppf "threadExit(t%d)" tid
  | Switch_thread { tid } -> Format.fprintf ppf "switchThread(t%d)" tid

let to_string e = Format.asprintf "%a" pp e

let to_line = function
  | Call { tid; routine } -> Printf.sprintf "C %d %d" tid routine
  | Return { tid } -> Printf.sprintf "R %d" tid
  | Read { tid; addr } -> Printf.sprintf "L %d %d" tid addr
  | Write { tid; addr } -> Printf.sprintf "S %d %d" tid addr
  | Block { tid; units } -> Printf.sprintf "B %d %d" tid units
  | User_to_kernel { tid; addr; len } -> Printf.sprintf "U %d %d %d" tid addr len
  | Kernel_to_user { tid; addr; len } -> Printf.sprintf "K %d %d %d" tid addr len
  | Acquire { tid; lock } -> Printf.sprintf "A %d %d" tid lock
  | Release { tid; lock } -> Printf.sprintf "E %d %d" tid lock
  | Alloc { tid; addr; len } -> Printf.sprintf "M %d %d %d" tid addr len
  | Free { tid; addr; len } -> Printf.sprintf "F %d %d %d" tid addr len
  | Thread_start { tid } -> Printf.sprintf "T %d" tid
  | Thread_exit { tid } -> Printf.sprintf "X %d" tid
  | Switch_thread { tid } -> Printf.sprintf "W %d" tid

let of_line line =
  let fail () = Error (Printf.sprintf "Event.of_line: malformed %S" line) in
  (* The text edge validates identifier payloads exactly like the binary
     one (Batch.validate): shadow-memory, per-thread and lockset
     consumers carry no per-access guard, so no decoder may admit a
     negative address or an out-of-range thread or lock id. *)
  let ok ev =
    let t = tid ev in
    if t < 0 || t > max_tid then
      Error (Printf.sprintf "Event.of_line: thread id %d out of range in %S" t line)
    else
      match ev with
      | (Acquire { lock; _ } | Release { lock; _ })
        when lock < 0 || lock > max_lock ->
        Error
          (Printf.sprintf "Event.of_line: lock id %d out of range in %S" lock
             line)
      | _ -> Ok ev
  in
  let addr_ok a ev =
    if a >= 0 then ok ev
    else Error (Printf.sprintf "Event.of_line: negative address in %S" line)
  in
  match String.split_on_char ' ' (String.trim line) with
  | [ "C"; a; b ] -> (
    match (int_of_string_opt a, int_of_string_opt b) with
    | Some tid, Some routine -> ok (Call { tid; routine })
    | _ -> fail ())
  | [ "R"; a ] -> (
    match int_of_string_opt a with
    | Some tid -> ok (Return { tid })
    | None -> fail ())
  | [ "L"; a; b ] -> (
    match (int_of_string_opt a, int_of_string_opt b) with
    | Some tid, Some addr -> addr_ok addr (Read { tid; addr })
    | _ -> fail ())
  | [ "S"; a; b ] -> (
    match (int_of_string_opt a, int_of_string_opt b) with
    | Some tid, Some addr -> addr_ok addr (Write { tid; addr })
    | _ -> fail ())
  | [ "B"; a; b ] -> (
    match (int_of_string_opt a, int_of_string_opt b) with
    | Some tid, Some units -> ok (Block { tid; units })
    | _ -> fail ())
  | [ "U"; a; b; c ] -> (
    match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c) with
    | Some tid, Some addr, Some len ->
      addr_ok addr (User_to_kernel { tid; addr; len })
    | _ -> fail ())
  | [ "K"; a; b; c ] -> (
    match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c) with
    | Some tid, Some addr, Some len ->
      addr_ok addr (Kernel_to_user { tid; addr; len })
    | _ -> fail ())
  | [ "A"; a; b ] -> (
    match (int_of_string_opt a, int_of_string_opt b) with
    | Some tid, Some lock -> ok (Acquire { tid; lock })
    | _ -> fail ())
  | [ "E"; a; b ] -> (
    match (int_of_string_opt a, int_of_string_opt b) with
    | Some tid, Some lock -> ok (Release { tid; lock })
    | _ -> fail ())
  | [ "M"; a; b; c ] -> (
    match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c) with
    | Some tid, Some addr, Some len -> addr_ok addr (Alloc { tid; addr; len })
    | _ -> fail ())
  | [ "F"; a; b; c ] -> (
    match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c) with
    | Some tid, Some addr, Some len -> addr_ok addr (Free { tid; addr; len })
    | _ -> fail ())
  | [ "T"; a ] -> (
    match int_of_string_opt a with
    | Some tid -> ok (Thread_start { tid })
    | None -> fail ())
  | [ "X"; a ] -> (
    match int_of_string_opt a with
    | Some tid -> ok (Thread_exit { tid })
    | None -> fail ())
  | [ "W"; a ] -> (
    match int_of_string_opt a with
    | Some tid -> ok (Switch_thread { tid })
    | None -> fail ())
  | _ -> fail ()

let equal (a : t) (b : t) = a = b

(* ----- packed batches -------------------------------------------------- *)

module Batch = struct
  type event = t

  (* Struct-of-arrays: one int per field, so the hot path (VM emission,
     codec, profiler dispatch) moves events as four machine words and
     never constructs a variant.  [args] holds the routine / addr /
     units / lock payload, [lens] the length of range events; both are 0
     for events without that field. *)
  type t = {
    tags : int array;
    tids : int array;
    args : int array;
    lens : int array;
    mutable len : int;
  }

  let default_capacity = 8192

  let create ?(capacity = default_capacity) () =
    if capacity <= 0 then
      invalid_arg "Event.Batch.create: capacity must be positive";
    {
      tags = Array.make capacity 0;
      tids = Array.make capacity 0;
      args = Array.make capacity 0;
      lens = Array.make capacity 0;
      len = 0;
    }

  let capacity b = Array.length b.tags
  let length b = b.len
  let is_empty b = b.len = 0
  let is_full b = b.len = Array.length b.tags
  let clear b = b.len <- 0

  (* Event tags.  The numbering is shared with the binary codec's record
     tags (Trace_codec), so a decoded record's tag byte is stored as-is. *)
  let tag_call = 1
  let tag_return = 2
  let tag_read = 3
  let tag_write = 4
  let tag_block = 5
  let tag_user_to_kernel = 6
  let tag_kernel_to_user = 7
  let tag_acquire = 8
  let tag_release = 9
  let tag_alloc = 10
  let tag_free = 11
  let tag_thread_start = 12
  let tag_thread_exit = 13
  let tag_switch_thread = 14
  let max_tag = 14

  (* Field-presence masks, bit [tag] set when the field exists: payload
     for Call/Read/Write/Block/ranges/locks (1, 3-11), length for the
     range events (6, 7, 10, 11).  Exposed so decoders can test presence
     with a shift instead of a cross-module call per record. *)
  let arg_mask = 0b1111_1111_1010
  let len_mask = 0b1100_1100_0000

  let tag_has_arg tag = (arg_mask lsr tag) land 1 = 1
  let tag_has_len tag = (len_mask lsr tag) land 1 = 1

  (* Tags whose payload is a memory address: Read/Write (3, 4), the
     kernel transfers (6, 7), Alloc/Free (10, 11). *)
  let addr_mask = 0b1100_1101_1000

  (* Tags whose payload is a lock id: Acquire/Release (8, 9). *)
  let lock_mask = 0b0011_0000_0000

  (* Consumers trust batch fields: shadow-memory page tables are indexed
     with the raw address, per-thread tool state is dense in (and packed
     by) the tid, and lockset memo keys pack the lock id below bit 31 —
     so a negative address, a tid outside [0, max_tid] or a lock id
     outside [0, max_lock] must never cross the batch edge.  Decoders
     and other untrusted producers validate once per batch here, and the
     tools' hot paths drop their per-access guards. *)
  let validate b =
    for i = 0 to b.len - 1 do
      let tag = Array.unsafe_get b.tags i in
      let tid = Array.unsafe_get b.tids i in
      if tid < 0 || tid > max_tid then
        invalid_arg
          (Printf.sprintf "Event.Batch: thread id %d out of range at event %d"
             tid i);
      let arg = Array.unsafe_get b.args i in
      if (addr_mask lsr tag) land 1 = 1 && arg < 0 then
        invalid_arg
          (Printf.sprintf "Event.Batch: negative address %d at event %d" arg i);
      if (lock_mask lsr tag) land 1 = 1 && (arg < 0 || arg > max_lock) then
        invalid_arg
          (Printf.sprintf "Event.Batch: lock id %d out of range at event %d"
             arg i)
    done

  let tags b = b.tags
  let tids b = b.tids
  let args b = b.args
  let lens b = b.lens

  let unsafe_push b ~tag ~tid ~arg ~len =
    let i = b.len in
    Array.unsafe_set b.tags i tag;
    Array.unsafe_set b.tids i tid;
    Array.unsafe_set b.args i arg;
    Array.unsafe_set b.lens i len;
    b.len <- i + 1

  (* For bulk fillers that write through the field arrays directly;
     [n] must count rows actually written. *)
  let unsafe_set_length b n = b.len <- n

  let tag_of_event : event -> int = function
    | Call _ -> tag_call
    | Return _ -> tag_return
    | Read _ -> tag_read
    | Write _ -> tag_write
    | Block _ -> tag_block
    | User_to_kernel _ -> tag_user_to_kernel
    | Kernel_to_user _ -> tag_kernel_to_user
    | Acquire _ -> tag_acquire
    | Release _ -> tag_release
    | Alloc _ -> tag_alloc
    | Free _ -> tag_free
    | Thread_start _ -> tag_thread_start
    | Thread_exit _ -> tag_thread_exit
    | Switch_thread _ -> tag_switch_thread

  let push b ev =
    if is_full b then invalid_arg "Event.Batch.push: batch is full";
    match ev with
    | Call { tid; routine } ->
      unsafe_push b ~tag:tag_call ~tid ~arg:routine ~len:0
    | Return { tid } -> unsafe_push b ~tag:tag_return ~tid ~arg:0 ~len:0
    | Read { tid; addr } -> unsafe_push b ~tag:tag_read ~tid ~arg:addr ~len:0
    | Write { tid; addr } -> unsafe_push b ~tag:tag_write ~tid ~arg:addr ~len:0
    | Block { tid; units } ->
      unsafe_push b ~tag:tag_block ~tid ~arg:units ~len:0
    | User_to_kernel { tid; addr; len } ->
      unsafe_push b ~tag:tag_user_to_kernel ~tid ~arg:addr ~len
    | Kernel_to_user { tid; addr; len } ->
      unsafe_push b ~tag:tag_kernel_to_user ~tid ~arg:addr ~len
    | Acquire { tid; lock } ->
      unsafe_push b ~tag:tag_acquire ~tid ~arg:lock ~len:0
    | Release { tid; lock } ->
      unsafe_push b ~tag:tag_release ~tid ~arg:lock ~len:0
    | Alloc { tid; addr; len } -> unsafe_push b ~tag:tag_alloc ~tid ~arg:addr ~len
    | Free { tid; addr; len } -> unsafe_push b ~tag:tag_free ~tid ~arg:addr ~len
    | Thread_start { tid } ->
      unsafe_push b ~tag:tag_thread_start ~tid ~arg:0 ~len:0
    | Thread_exit { tid } ->
      unsafe_push b ~tag:tag_thread_exit ~tid ~arg:0 ~len:0
    | Switch_thread { tid } ->
      unsafe_push b ~tag:tag_switch_thread ~tid ~arg:0 ~len:0

  let unpack b i : event =
    let tid = Array.unsafe_get b.tids i in
    let arg = Array.unsafe_get b.args i in
    let len = Array.unsafe_get b.lens i in
    match Array.unsafe_get b.tags i with
    | 1 -> Call { tid; routine = arg }
    | 2 -> Return { tid }
    | 3 -> Read { tid; addr = arg }
    | 4 -> Write { tid; addr = arg }
    | 5 -> Block { tid; units = arg }
    | 6 -> User_to_kernel { tid; addr = arg; len }
    | 7 -> Kernel_to_user { tid; addr = arg; len }
    | 8 -> Acquire { tid; lock = arg }
    | 9 -> Release { tid; lock = arg }
    | 10 -> Alloc { tid; addr = arg; len }
    | 11 -> Free { tid; addr = arg; len }
    | 12 -> Thread_start { tid }
    | 13 -> Thread_exit { tid }
    | 14 -> Switch_thread { tid }
    | tag -> invalid_arg (Printf.sprintf "Event.Batch: corrupt tag %d" tag)

  let check b i =
    if i < 0 || i >= b.len then
      invalid_arg
        (Printf.sprintf "Event.Batch: index %d out of bounds [0,%d)" i b.len)

  let get b i =
    check b i;
    unpack b i

  let iter f b =
    for i = 0 to b.len - 1 do
      f
        (Array.unsafe_get b.tags i)
        (Array.unsafe_get b.tids i)
        (Array.unsafe_get b.args i)
        (Array.unsafe_get b.lens i)
    done

  let iter_events f b =
    for i = 0 to b.len - 1 do
      f (unpack b i)
    done

  let filter_in_place p b =
    let w = ref 0 in
    for i = 0 to b.len - 1 do
      if p (unpack b i) then begin
        let j = !w in
        if j <> i then begin
          Array.unsafe_set b.tags j (Array.unsafe_get b.tags i);
          Array.unsafe_set b.tids j (Array.unsafe_get b.tids i);
          Array.unsafe_set b.args j (Array.unsafe_get b.args i);
          Array.unsafe_set b.lens j (Array.unsafe_get b.lens i)
        end;
        incr w
      end
    done;
    b.len <- !w

  (* Bulk copy for the packed trace: four blits, nothing unpacked. *)
  let append dst src ~pos ~len =
    if pos < 0 || len < 0 || pos + len > src.len then
      invalid_arg "Event.Batch.append: source range out of bounds";
    if dst.len + len > Array.length dst.tags then
      invalid_arg "Event.Batch.append: no room in the destination";
    Array.blit src.tags pos dst.tags dst.len len;
    Array.blit src.tids pos dst.tids dst.len len;
    Array.blit src.args pos dst.args dst.len len;
    Array.blit src.lens pos dst.lens dst.len len;
    dst.len <- dst.len + len
end
