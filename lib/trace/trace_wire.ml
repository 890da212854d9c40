(* Wire primitives shared by every codec layer: zigzag varints (records),
   plain varints (frame lengths), little-endian fixed-width fields, and
   the [Decode_error] helper.  Extracted from the monolithic codec so the
   frame / transform / event layers sit on one vocabulary. *)

let bad fmt =
  Printf.ksprintf (fun s -> raise (Trace_stream.Decode_error s)) fmt

(* ----- zigzag varints ------------------------------------------------- *)

(* Zigzag maps the signed int onto the non-negative range so that values
   of small magnitude — the common case — encode in one byte, while the
   full [min_int, max_int] range still round-trips: the shifted value is
   treated as an unsigned machine word ([lsr] is logical). *)

(* Both directions run a few times per event, so they are written as
   top-level tail recursions over plain int arguments: an inner closure
   (capturing the byte source) or a local [ref] would cost a minor
   allocation per call and dominate the decode profile. *)

let rec add_varint_rest buf v =
  let b = v land 0x7f in
  let v = v lsr 7 in
  if v = 0 then Buffer.add_char buf (Char.unsafe_chr b)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (b lor 0x80));
    add_varint_rest buf v
  end

let add_varint buf n =
  add_varint_rest buf ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

(* Decoding rejects every encoding the encoder above cannot produce, so
   the byte representation of a value is unique (the byte-diffability
   contract: distinct byte streams decode to distinct traces).  Two
   guards, both checked before the shift so no [lsl] ever runs with an
   out-of-range count: a byte whose significant bits would fall off the
   top of the int overflows, and a terminating byte that contributes no
   bits (a redundant [0x80 0x00]-style tail) is non-canonical. *)

let[@inline] check_varint_bits bits shift =
  if
    shift >= Sys.int_size
    || (shift > Sys.int_size - 7 && bits lsr (Sys.int_size - shift) <> 0)
  then bad "varint overflows the int range"

(* [read_byte] yields the next byte or -1 at end of input. *)
let rec read_varint_rest read_byte shift acc =
  match read_byte () with
  | -1 -> bad "truncated varint"
  | b ->
    let bits = b land 0x7f in
    check_varint_bits bits shift;
    let acc = acc lor (bits lsl shift) in
    if b land 0x80 <> 0 then read_varint_rest read_byte (shift + 7) acc
    else if bits = 0 && shift > 0 then bad "non-canonical varint encoding"
    else acc

let read_varint read_byte =
  let v = read_varint_rest read_byte 0 0 in
  (v lsr 1) lxor (- (v land 1))

(* Same decode, but straight off a byte buffer through a position ref —
   the chunked reader's fast path.  Callers must guarantee the buffer
   holds a complete varint starting at [!pos]; the [check_varint_bits]
   guard bounds a varint at ten bytes, which is what makes the caller's
   margin check sufficient for [unsafe_get].  Only entered from the
   second byte on (shift >= 7), so a zero terminating byte is always
   non-canonical here. *)
let rec read_varint_bytes_rest chunk pos shift acc =
  let b = Char.code (Bytes.unsafe_get chunk !pos) in
  incr pos;
  let bits = b land 0x7f in
  check_varint_bits bits shift;
  let acc = acc lor (bits lsl shift) in
  if b land 0x80 <> 0 then read_varint_bytes_rest chunk pos (shift + 7) acc
  else if bits = 0 then bad "non-canonical varint encoding"
  else acc

(* One-byte varints — small tids, small deltas — are the overwhelmingly
   common case, so decode them without entering the loop. *)
let[@inline always] read_varint_bytes_fast chunk pos =
  let b0 = Char.code (Bytes.unsafe_get chunk !pos) in
  incr pos;
  if b0 < 0x80 then (b0 lsr 1) lxor (- (b0 land 1))
  else
    let v = read_varint_bytes_rest chunk pos 7 (b0 land 0x7f) in
    (v lsr 1) lxor (- (v land 1))

(* Bounds-checked twin of [read_varint_bytes_fast] for the tail of a
   buffer where the [max_record_bytes] margin no longer holds.  Short
   packed regions take it for nearly every field, so it too is a
   top-level recursion: a local loop closure would allocate per call. *)
let rec read_varint_bytes_checked_rest chunk pos limit shift acc =
  if !pos >= limit then bad "truncated varint"
  else begin
    let b = Char.code (Bytes.unsafe_get chunk !pos) in
    incr pos;
    let bits = b land 0x7f in
    check_varint_bits bits shift;
    let acc = acc lor (bits lsl shift) in
    if b land 0x80 <> 0 then
      read_varint_bytes_checked_rest chunk pos limit (shift + 7) acc
    else if bits = 0 && shift > 0 then bad "non-canonical varint encoding"
    else acc
  end

let read_varint_bytes_checked chunk pos limit =
  let v = read_varint_bytes_checked_rest chunk pos limit 0 0 in
  (v lsr 1) lxor (- (v land 1))

(* A record is at most 1 tag byte + 3 varints of at most 10 bytes (a
   canonical varint of a 63-bit int is 9 bytes; 10 is a safe margin). *)
let max_record_bytes = 34

(* ----- plain (non-zigzag) varints ------------------------------------- *)

(* These frame the version >= 2 chunks. *)

let rec add_uvarint buf v =
  if v < 0x80 then Buffer.add_char buf (Char.unsafe_chr v)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (v land 0x7f lor 0x80));
    add_uvarint buf (v lsr 7)
  end

let rec uvarint_size v = if v < 0x80 then 1 else 1 + uvarint_size (v lsr 7)

(* [read_byte] convention as above; canonical, like the record varints. *)
let read_uvarint read_byte =
  let rec go shift acc =
    match read_byte () with
    | -1 -> bad "truncated chunk header"
    | b ->
      let bits = b land 0x7f in
      check_varint_bits bits shift;
      let acc = acc lor (bits lsl shift) in
      if b land 0x80 <> 0 then go (shift + 7) acc
      else if bits = 0 && shift > 0 then bad "non-canonical chunk length"
      else acc
  in
  go 0 0

(* ----- little-endian fixed-width fields ------------------------------- *)

let add_le32 buf n =
  for i = 0 to 3 do
    Buffer.add_char buf (Char.unsafe_chr ((n lsr (8 * i)) land 0xff))
  done

let add_le64 buf n =
  for i = 0 to 7 do
    Buffer.add_char buf (Char.unsafe_chr ((n lsr (8 * i)) land 0xff))
  done
