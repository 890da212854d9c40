(* ---- Writing ---- *)

let writable s = not (String.contains s '\n' || String.contains s '\r')

type writer = Buffer.t

let record = Buffer.add_string
let eol w = Buffer.add_char w '\n'
let contents = Buffer.contents

(* The primitive [Printf] calls for [%.17g], without its interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

let add w s =
  Buffer.add_char w ',';
  Buffer.add_string w s

let add_int w n = add w (Int.to_string n)
let add_float w x = add w (format_float "%.17g" x)

let check ok s =
  if not ok then
    invalid_arg (Printf.sprintf "Line_record: field %S would not read back" s)

let add_text w s =
  check (writable s && not (String.contains s ',')) s;
  add w s

let add_last w s =
  check (writable s) s;
  add w s;
  eol w

let writer ~kind ~version =
  let w = Buffer.create 4096 in
  Printf.bprintf w "%s,%d\n" kind version;
  w

(* ---- Reading ---- *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* One line of [s], up to [stop] (its LF, or the CR before it).  The
   next field starts at [pos], past [stop] once none is left; [n] fields
   are taken, the kind included. *)
type fields = { s : string; stop : int; mutable pos : int; mutable n : int }

let take f e =
  if f.pos > f.stop then fail "missing field %d" (f.n + 1);
  let v = String.sub f.s f.pos (e - f.pos) in
  f.pos <- e + 1;
  f.n <- f.n + 1;
  v

let last f = take f f.stop

let text f =
  let e = ref f.pos in
  while !e < f.stop && String.unsafe_get f.s !e <> ',' do incr e done;
  take f !e

(* Up to 18 decimal digits (no overflow) are read in place, which saves
   a fifth of a dump's read time; any other field is [int_of_string]'s. *)
let int f =
  let s = f.s and stop = f.stop and start = f.pos in
  let rec digits i n =
    if i < stop && i - start < 18 && s.[i] >= '0' && s.[i] <= '9' then
      digits (i + 1) ((n * 10) + Char.code s.[i] - 48)
    else if i > start && (i = stop || s.[i] = ',') then (
      f.pos <- i + 1;
      f.n <- f.n + 1;
      n)
    else
      let v = text f in
      match int_of_string_opt v with
      | Some n -> n
      | None -> fail "field %d %S is not an integer" f.n v
  in
  digits start 0

(* [float_of_string] would skip leading blanks. *)
let float f =
  let v = text f in
  match if v <> "" && v.[0] > ' ' then float_of_string_opt v else None with
  | Some x -> x
  | None -> fail "field %d %S is not a number" f.n v

let read ~kind ~version ?(headerless = false) parsers s =
  let header f =
    let v = int f in
    if v < 1 || v > version then
      fail "unsupported version %d (expected <= %d)" v version
  in
  let parsers = (kind, header) :: parsers and len = String.length s in
  let rec line_end i =
    let c = if i = len then '\n' else String.unsafe_get s i in
    if c = '\n' || c = '\r' then i else line_end (i + 1)
  in
  let rec go lineno start seen =
    let stop = line_end start in
    let nl = if stop < len && s.[stop] = '\r' then stop + 1 else stop in
    let error m = Error (Printf.sprintf "line %d: %s" lineno m) in
    let next hd = if nl >= len then Ok () else go (lineno + 1) (nl + 1) hd in
    let f = { s; stop; pos = start; n = 0 } in
    (* No writer writes a CR but the one a CRLF line end holds. *)
    if nl < len && s.[nl] <> '\n' then error "a CR inside a line"
    else if stop = start then next seen
    else
      let k = text f in
      if not (seen || headerless || k = kind) then
        error (Printf.sprintf "missing %s,<version> header" kind)
      else
        match List.find_opt (fun (k', _) -> String.equal k k') parsers with
        | None -> error (Printf.sprintf "unknown record kind %S" k)
        | Some (_, parse) -> (
          match
            parse f;
            if f.pos <= f.stop then fail "extra field %d" (f.n + 1)
          with
          | () -> next (seen || k = kind)
          | exception Bad m -> error (Printf.sprintf "bad %s record: %s" k m))
  in
  go 1 0 false

let read_file path =
  try Ok (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error e -> Error e
