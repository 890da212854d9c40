(* Packed event coding — the version-3 event layer.  One packed chunk is
   a self-contained stream of groups over a small per-chunk context
   (current thread, per-thread address registers, pattern dictionary),
   so salvage, the shard index and parallel chunk replay need nothing
   beyond chunk boundaries.  The grammar (first byte of each group):

     1..14        literal event: tag byte, then the operand fields of
                  that tag for the *current* thread — address-bearing
                  args as a zigzag delta against the *second*-most-recent
                  address the thread touched, other args and lengths as
                  absolute zigzags.  Depth-2 history instead of
                  last-address delta because instrumented code revisits
                  on a two-beat: read a / read b / write a / write b
                  (annealing swaps, element exchanges) and alternating
                  src/dst streams (copy loops) both land the delta base
                  exactly two accesses back, turning their operands into
                  zero deltas where a depth-1 register thrashes
     15           routine definition: id, name length, name bytes
     16           set current thread: zigzag tid
     17           repeat: zigzag L, zigzag n — re-decode the L bytes
                  immediately preceding this token n more times
     18           define pattern: zigzag k (2..16), then k tag bytes;
                  pattern ids are assigned sequentially per chunk
     19           use pattern: zigzag id, then the operand fields of
                  every pattern event (tags come from the dictionary)
     32..255      use pattern id (byte - 32), same operands
     0, 20..31    invalid

   The writer emits groups 1..17 only.  Groups 18, 19 and 32..255, the
   tag-pattern dictionary, are read-only: files written before the
   writer stopped defining patterns carry them, and the decoder keeps
   reading them with every check.  The dictionary cost most of the
   encode time and saved at most 3.2% of the raw bytes on the traces
   measured, and entropy-coded chunks came out smaller without it.

   Two redundancy mechanisms compose: address deltas make regular
   strides small and repetitive, and the repeat token collapses
   byte-identical group runs — after delta coding, a constant-stride
   loop iteration *is* byte identical.  Correctness of repeat
   suppression rests on a strict rule: the encoder swallows a group into
   a repeat only when the bytes it just produced from the live context
   equal the region bytes at the current phase.  Decoding is
   deterministic given (bytes, context) and the context evolves
   identically either way, so replaying the region reproduces exactly
   the swallowed events. *)

module Batch = Event.Batch

let bad = Trace_wire.bad
let op_def = 15
let op_set_tid = 16
let op_repeat = 17
let op_defpat = 18
let op_usepat = 19
let first_short_usepat = 32
let pat_kmax = 16
let max_pats = 4096

(* Tandem detection window: how many trailing groups the encoder can
   fold into one repeat region. *)
let rep_kmax = 32
let ring_cap = 64 (* 2 * rep_kmax, power of two *)

(* A region shorter than the repeat token itself is not worth a token. *)
let min_region_bytes = 4

(* The most events one chunk may decode to.  The writer flushes a chunk
   once it holds this many ({!Trace_codec.v3_chunk_events}), so a chunk
   that would expand past it — a corrupt or hostile repeat count — is
   rejected before it is expanded. *)
let max_chunk_events = 1 lsl 16

let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))

(* ===== per-thread address history ======================================= *)

(* Depth-2 address registers per thread id, one set each for the
   encoder and the decoder: [prev2] (the delta base) holds the
   second-most-recent address, [prev] the most recent, and an entry is
   valid only while its [epoch] equals [cur_epoch] (bumped per chunk, so
   a chunk starts with empty history without clearing anything).  The
   arrays are sized on demand: real traces index them with a handful of
   tids, so they start at [history_init] entries and grow by doubling
   when a thread switch names a tid beyond them — never past
   [Event.max_tid], which every switch is range-checked against. *)
type history = {
  mutable prev : int array;
  mutable prev2 : int array;
  mutable epoch : int array;
  mutable cur_epoch : int;
}

let history_init = 64

let create_history () =
  {
    prev = Array.make history_init 0;
    prev2 = Array.make history_init 0;
    epoch = Array.make history_init 0;
    cur_epoch = 1;
  }

(* Make [tid] (already range-checked) addressable.  Grown entries carry
   epoch 0, which no chunk ever runs under, so they read as empty. *)
let reserve h tid =
  let n = Array.length h.epoch in
  if tid >= n then begin
    let cap = min (max (2 * n) (tid + 1)) (Event.max_tid + 1) in
    let grow a =
      let g = Array.make cap 0 in
      Array.blit a 0 g 0 n;
      g
    in
    h.prev <- grow h.prev;
    h.prev2 <- grow h.prev2;
    h.epoch <- grow h.epoch
  end

let[@inline] prev2_get h tid =
  if h.epoch.(tid) = h.cur_epoch then h.prev2.(tid) else 0

let[@inline] prev_shift h tid v =
  if h.epoch.(tid) = h.cur_epoch then h.prev2.(tid) <- h.prev.(tid)
  else begin
    h.epoch.(tid) <- h.cur_epoch;
    h.prev2.(tid) <- 0
  end;
  h.prev.(tid) <- v

(* ===== encoder ========================================================= *)

type encoder = {
  mutable out : Bytes.t;
  mutable olen : int;
  (* chunk-local event context (mirrored by the decoder) *)
  mutable e_cur_tid : int;
  e_hist : history;
  (* group ring + repeat mode *)
  ring : int array; (* start offsets of recent groups *)
  mutable ring_n : int;
  mutable r_active : bool;
  mutable r_start : int; (* repeat region [r_start, r_start + r_len) *)
  mutable r_len : int;
  mutable r_phase : int; (* matched bytes of the current iteration *)
  mutable r_count : int; (* whole iterations swallowed so far *)
}

let create_encoder () =
  {
    out = Bytes.create 4096;
    olen = 0;
    e_cur_tid = 0;
    e_hist = create_history ();
    ring = Array.make ring_cap 0;
    ring_n = 0;
    r_active = false;
    r_start = 0;
    r_len = 0;
    r_phase = 0;
    r_count = 0;
  }

let chunk_length e = e.olen

let ensure e n =
  if e.olen + n > Bytes.length e.out then begin
    let cap = ref (2 * Bytes.length e.out) in
    while e.olen + n > !cap do
      cap := 2 * !cap
    done;
    let out = Bytes.create !cap in
    Bytes.blit e.out 0 out 0 e.olen;
    e.out <- out
  end

let[@inline] put_byte e b =
  ensure e 1;
  Bytes.unsafe_set e.out e.olen (Char.unsafe_chr b);
  e.olen <- e.olen + 1

let put_varint e n =
  ensure e 10;
  (* The zigzag value is an unsigned word — for [min_int]-magnitude
     inputs it has the top bit set — so the loop test must be the
     logical shift, never a signed comparison. *)
  let v = ref (zigzag n) in
  let p = ref e.olen in
  while !v lsr 7 <> 0 do
    Bytes.unsafe_set e.out !p (Char.unsafe_chr (!v land 0x7f lor 0x80));
    incr p;
    v := !v lsr 7
  done;
  Bytes.unsafe_set e.out !p (Char.unsafe_chr !v);
  e.olen <- !p + 1

let bytes_eq b p1 p2 n =
  let i = ref 0 in
  while !i < n && Bytes.unsafe_get b (p1 + !i) = Bytes.unsafe_get b (p2 + !i) do
    incr i
  done;
  !i = n

(* Close the open repeat: emit the token, then re-emit the matched
   prefix of the unfinished iteration literally.  [out] ends exactly at
   the region end whenever repeat mode is on, so the token lands right
   after the region. *)
let finalize_repeat e =
  if e.r_active then begin
    e.r_active <- false;
    let start = e.r_start and phase = e.r_phase in
    put_byte e op_repeat;
    put_varint e e.r_len;
    put_varint e e.r_count;
    if phase > 0 then begin
      ensure e phase;
      Bytes.blit e.out start e.out e.olen phase;
      e.olen <- e.olen + phase
    end;
    e.ring_n <- 0
  end

(* Emitting a group that cannot participate in repeats (a routine
   definition): close the repeat and empty the detection ring so no
   region ever spans the barrier. *)
let barrier e =
  finalize_repeat e;
  e.ring_n <- 0

(* Look for a tandem in the trailing groups: the last [k] groups
   byte-equal to the [k] before them.  Smallest [k] first — the tightest
   period swallows the most per token. *)
let detect_tandem e =
  let k = ref 1 in
  let found = ref 0 in
  while !found = 0 && !k <= rep_kmax && 2 * !k <= e.ring_n do
    let off2 = e.ring.((e.ring_n - !k) land (ring_cap - 1)) in
    let off1 = e.ring.((e.ring_n - (2 * !k)) land (ring_cap - 1)) in
    let len1 = off2 - off1 in
    if
      len1 >= min_region_bytes
      && e.olen - off2 = len1
      && bytes_eq e.out off1 off2 len1
    then found := !k
    else incr k
  done;
  if !found > 0 then begin
    let off2 = e.ring.((e.ring_n - !found) land (ring_cap - 1)) in
    let off1 = e.ring.((e.ring_n - (2 * !found)) land (ring_cap - 1)) in
    e.olen <- off2 (* drop the second copy; the region stands for it *);
    e.r_active <- true;
    e.r_start <- off1;
    e.r_len <- off2 - off1;
    e.r_phase <- 0;
    e.r_count <- 1;
    e.ring_n <- 0
  end

(* A group's bytes were just written at [gstart..olen).  In repeat mode,
   swallow it if it extends the byte-identical run; otherwise close the
   repeat and re-append it after the token.  Outside repeat mode, enter
   the detection ring. *)
let commit_group e gstart =
  if e.r_active then begin
    let glen = e.olen - gstart in
    if
      glen <= e.r_len - e.r_phase
      && bytes_eq e.out (e.r_start + e.r_phase) gstart glen
    then begin
      e.olen <- gstart;
      e.r_phase <- e.r_phase + glen;
      if e.r_phase = e.r_len then begin
        e.r_count <- e.r_count + 1;
        e.r_phase <- 0
      end
    end
    else begin
      (* The token will overwrite [gstart..]; save the group first. *)
      let tail = Bytes.sub e.out gstart glen in
      e.olen <- gstart;
      finalize_repeat e;
      let g2 = e.olen in
      ensure e glen;
      Bytes.blit tail 0 e.out e.olen glen;
      e.olen <- e.olen + glen;
      e.ring.(e.ring_n land (ring_cap - 1)) <- g2;
      e.ring_n <- e.ring_n + 1
    end
  end
  else begin
    e.ring.(e.ring_n land (ring_cap - 1)) <- gstart;
    e.ring_n <- e.ring_n + 1;
    detect_tandem e
  end

let put_operands e ~tag ~tid ~arg ~len =
  if (Batch.arg_mask lsr tag) land 1 = 1 then
    if (Batch.addr_mask lsr tag) land 1 = 1 then begin
      put_varint e (arg - prev2_get e.e_hist tid);
      prev_shift e.e_hist tid arg
    end
    else put_varint e arg;
  if (Batch.len_mask lsr tag) land 1 = 1 then put_varint e len

(* Thread switches are the only place a new tid enters the context
   (the chunk starts on tid 0, which the history always covers). *)
let switch_tid e tid =
  if tid <> e.e_cur_tid then begin
    reserve e.e_hist tid;
    put_byte e op_set_tid;
    put_varint e tid;
    e.e_cur_tid <- tid
  end

let add_event e ~tag ~tid ~arg ~len =
  if tid < 0 || tid > Event.max_tid then
    invalid_arg
      (Printf.sprintf "Trace_codec: tid %d out of range for format version 3"
         tid);
  let g = e.olen in
  switch_tid e tid;
  put_byte e tag;
  put_operands e ~tag ~tid ~arg ~len;
  commit_group e g

let add_def e id name =
  barrier e;
  put_byte e op_def;
  put_varint e id;
  let n = String.length name in
  put_varint e n;
  ensure e n;
  Bytes.blit_string name 0 e.out e.olen n;
  e.olen <- e.olen + n

(* Seal the current chunk: flush everything pending, hand the packed
   payload out, and reset the per-chunk context so the next chunk is
   independently decodable. *)
let take_chunk e =
  barrier e;
  let chunk = Bytes.sub e.out 0 e.olen in
  e.olen <- 0;
  e.e_cur_tid <- 0;
  e.e_hist.cur_epoch <- e.e_hist.cur_epoch + 1;
  e.ring_n <- 0;
  chunk

(* ===== decoder ========================================================= *)

type decoder = {
  mutable src : Bytes.t;
  pos : int ref;
  mutable start : int;
  mutable limit : int;
  mutable d_cur_tid : int;
  d_hist : history;  (* mirrors the encoder's *)
  mutable d_pats : int array array;
  mutable d_npats : int;
  mutable left : int;  (* events the current chunk may still decode *)
  mutable rep_on : bool;
  mutable rep_rem : int;
  mutable rep_resume : int;
  (* Repeat template: the region is parsed ONCE into rows of
     (tag, tid, operand kind, operand, len) and every iteration replays
     the rows — a few array moves per event instead of a varint re-parse
     per iteration.  [t_kind] is 1 when the operand is an address delta
     to apply against the thread register, 0 when it is stored verbatim.
     [t_idx] is the row cursor, persisted so replay resumes after a
     batch fills mid-iteration; [t_end_tid] is the current-thread value
     after one pass, installed when the repeat completes.  [t_pos] is
     the byte cursor of the parse, owned here because a local [ref]
     handed to the varint readers would be allocated per region. *)
  mutable t_tags : int array;
  mutable t_tids : int array;
  mutable t_kind : int array;
  mutable t_args : int array;
  mutable t_lens : int array;
  mutable t_n : int;
  mutable t_idx : int;
  mutable t_end_tid : int;
  t_pos : int ref;
}

let create_decoder () =
  {
    src = Bytes.empty;
    pos = ref 0;
    start = 0;
    limit = 0;
    d_cur_tid = 0;
    d_hist = create_history ();
    d_pats = Array.make 64 [||];
    d_npats = 0;
    left = max_chunk_events;
    rep_on = false;
    rep_rem = 0;
    rep_resume = 0;
    t_tags = Array.make 64 0;
    t_tids = Array.make 64 0;
    t_kind = Array.make 64 0;
    t_args = Array.make 64 0;
    t_lens = Array.make 64 0;
    t_n = 0;
    t_idx = 0;
    t_end_tid = 0;
    t_pos = ref 0;
  }

let start_chunk d src ~pos ~len =
  d.src <- src;
  d.pos := pos;
  d.start <- pos;
  d.limit <- pos + len;
  d.d_cur_tid <- 0;
  d.d_hist.cur_epoch <- d.d_hist.cur_epoch + 1;
  d.d_npats <- 0;
  d.left <- max_chunk_events;
  d.rep_on <- false

(* Decode one operand field at [!p] in [src].  [el] is the effective
   limit (the repeat region end while parsing a template); [fast] means
   a whole record is known to fit below it, entitling the unchecked
   varint path.  Top-level, so a caller's cursor costs no closure. *)
let[@inline] field src p el fast =
  if fast then Trace_wire.read_varint_bytes_fast src p
  else Trace_wire.read_varint_bytes_checked src p el

let[@inline] read_field d el fast = field d.src d.pos el fast

let ensure_template d k =
  if d.t_n + k > Array.length d.t_tags then begin
    let cap = ref (Array.length d.t_tags) in
    while d.t_n + k > !cap do
      cap := !cap * 2
    done;
    let grow a =
      let g = Array.make !cap 0 in
      Array.blit a 0 g 0 d.t_n;
      g
    in
    d.t_tags <- grow d.t_tags;
    d.t_tids <- grow d.t_tids;
    d.t_kind <- grow d.t_kind;
    d.t_args <- grow d.t_args;
    d.t_lens <- grow d.t_lens
  end

let[@inline] push_row d ~tag ~tid ~kind ~arg ~len =
  ensure_template d 1;
  let i = d.t_n in
  d.t_tags.(i) <- tag;
  d.t_tids.(i) <- tid;
  d.t_kind.(i) <- kind;
  d.t_args.(i) <- arg;
  d.t_lens.(i) <- len;
  d.t_n <- i + 1

(* Parse a repeat region into the template — once, with full validation,
   so the replay loop can trust every row.  Registers are NOT touched:
   address operands are stored as raw deltas and applied per iteration.
   The template's thread ids start from the live current thread, which
   is exactly the byte-replay state: after the region's literal pass the
   current thread either never changed (no [set_tid] inside) or equals
   the region's last [set_tid] — in both cases the value each iteration
   observes at entry. *)
let build_template d lo hi =
  d.t_n <- 0;
  let cur = ref d.d_cur_tid in
  let p = d.t_pos in
  p := lo;
  let src = d.src in
  while !p < hi do
    let op_pos = !p in
    let op = Char.code (Bytes.unsafe_get src op_pos) in
    incr p;
    let fast = op_pos <= hi - Trace_wire.max_record_bytes in
    if op >= 1 && op <= Batch.max_tag then begin
      let kind = ref 0 in
      let arg =
        if (Batch.arg_mask lsr op) land 1 = 1 then
          if (Batch.addr_mask lsr op) land 1 = 1 then begin
            kind := 1;
            field src p hi fast
          end
          else field src p hi fast
        else 0
      in
      let len =
        if (Batch.len_mask lsr op) land 1 = 1 then field src p hi fast else 0
      in
      push_row d ~tag:op ~tid:!cur ~kind:!kind ~arg ~len
    end
    else if op >= first_short_usepat || op = op_usepat then begin
      let id =
        if op >= first_short_usepat then op - first_short_usepat
        else field src p hi fast
      in
      if id < 0 || id >= d.d_npats then
        bad "packed chunk: undefined pattern %d" id;
      let ptags = d.d_pats.(id) in
      for i = 0 to Array.length ptags - 1 do
        let tag = ptags.(i) in
        let fast = !p <= hi - Trace_wire.max_record_bytes in
        let kind = ref 0 in
        let arg =
          if (Batch.arg_mask lsr tag) land 1 = 1 then
            if (Batch.addr_mask lsr tag) land 1 = 1 then begin
              kind := 1;
              field src p hi fast
            end
            else field src p hi fast
          else 0
        in
        let len =
          if (Batch.len_mask lsr tag) land 1 = 1 then field src p hi fast else 0
        in
        push_row d ~tag ~tid:!cur ~kind:!kind ~arg ~len
      done
    end
    else if op = op_set_tid then begin
      let tid = field src p hi fast in
      if tid < 0 || tid > Event.max_tid then
        bad "packed chunk: thread id %d out of range" tid;
      reserve d.d_hist tid;
      cur := tid
    end
    else if op = op_def then bad "packed chunk: definition inside repeat region"
    else if op = op_repeat then bad "packed chunk: nested repeat"
    else if op = op_defpat then
      bad "packed chunk: pattern definition inside repeat region"
    else bad "unknown packed opcode %d" op
  done;
  d.t_end_tid <- !cur

let too_many () =
  bad "packed chunk decodes to more than %d events" max_chunk_events

(* Fill [b] from the current chunk until the batch is full or the chunk
   is exhausted; returns [true] on exhaustion.  Resumable: repeat state
   and the stream cursor live in [d], so the caller just calls again
   with a fresh batch.  [b]'s capacity must be at least [pat_kmax].
   Every event the chunk decodes is charged against [left]: literal and
   pattern events as they are read, a repeat's whole expansion before
   its first iteration. *)
let fill d ~define b =
  let cap = Batch.capacity b in
  let tags_a = Batch.tags b and tids_a = Batch.tids b in
  let args_a = Batch.args b and lens_a = Batch.lens b in
  let pos = d.pos in
  let h = d.d_hist in
  let n = ref (Batch.length b) in
  let left = ref d.left in
  (* 0 = running, 1 = batch full (deliver), 2 = chunk exhausted. *)
  let state = ref 0 in
  while !state = 0 do
    if d.rep_on then begin
      (* Template replay: the hot path of a repeat-heavy trace. *)
      let t_tags = d.t_tags and t_tids = d.t_tids in
      let t_kind = d.t_kind and t_args = d.t_args and t_lens = d.t_lens in
      let tn = d.t_n in
      let i = ref d.t_idx in
      let looping = ref true in
      while !looping do
        if !i >= tn then begin
          d.rep_rem <- d.rep_rem - 1;
          i := 0;
          if d.rep_rem <= 0 then begin
            d.rep_on <- false;
            d.d_cur_tid <- d.t_end_tid;
            pos := d.rep_resume;
            looping := false
          end
        end
        else if !n >= cap then begin
          looping := false;
          state := 1
        end
        else begin
          let tag = Array.unsafe_get t_tags !i in
          let tid = Array.unsafe_get t_tids !i in
          let v = Array.unsafe_get t_args !i in
          let arg =
            if Array.unsafe_get t_kind !i = 1 then begin
              let a = prev2_get h tid + v in
              prev_shift h tid a;
              a
            end
            else v
          in
          let j = !n in
          Array.unsafe_set tags_a j tag;
          Array.unsafe_set tids_a j tid;
          Array.unsafe_set args_a j arg;
          Array.unsafe_set lens_a j (Array.unsafe_get t_lens !i);
          n := j + 1;
          incr i
        end
      done;
      d.t_idx <- !i
    end
    else if !n >= cap then state := 1
    else begin
      let el = d.limit in
      if !pos >= el then state := 2
      else begin
        let op_pos = !pos in
        let op = Char.code (Bytes.unsafe_get d.src op_pos) in
        incr pos;
        let fast = op_pos <= el - Trace_wire.max_record_bytes in
        if op >= 1 && op <= Batch.max_tag then begin
          left := !left - 1;
          if !left < 0 then too_many ();
          let tid = d.d_cur_tid in
          let arg =
            if (Batch.arg_mask lsr op) land 1 = 1 then
              if (Batch.addr_mask lsr op) land 1 = 1 then begin
                let a = prev2_get h tid + read_field d el fast in
                prev_shift h tid a;
                a
              end
              else read_field d el fast
            else 0
          in
          let len =
            if (Batch.len_mask lsr op) land 1 = 1 then read_field d el fast
            else 0
          in
          let j = !n in
          Array.unsafe_set tags_a j op;
          Array.unsafe_set tids_a j tid;
          Array.unsafe_set args_a j arg;
          Array.unsafe_set lens_a j len;
          n := j + 1
        end
        else if op >= first_short_usepat || op = op_usepat then begin
          let id =
            if op >= first_short_usepat then op - first_short_usepat
            else read_field d el fast
          in
          if id < 0 || id >= d.d_npats then
            bad "packed chunk: undefined pattern %d" id;
          let ptags = d.d_pats.(id) in
          let k = Array.length ptags in
          if cap - !n < k then begin
            if !n = 0 then
              bad "batch capacity %d below pattern length %d" cap k;
            (* Not enough room: rewind to the token and deliver. *)
            pos := op_pos;
            state := 1
          end
          else begin
            left := !left - k;
            if !left < 0 then too_many ();
            let tid = d.d_cur_tid in
            for i = 0 to k - 1 do
              let tag = ptags.(i) in
              let fast = !pos <= el - Trace_wire.max_record_bytes in
              let arg =
                if (Batch.arg_mask lsr tag) land 1 = 1 then
                  if (Batch.addr_mask lsr tag) land 1 = 1 then begin
                    let a = prev2_get h tid + read_field d el fast in
                    prev_shift h tid a;
                    a
                  end
                  else read_field d el fast
                else 0
              in
              let len =
                if (Batch.len_mask lsr tag) land 1 = 1 then
                  read_field d el fast
                else 0
              in
              let j = !n in
              Array.unsafe_set tags_a j tag;
              Array.unsafe_set tids_a j tid;
              Array.unsafe_set args_a j arg;
              Array.unsafe_set lens_a j len;
              n := j + 1
            done
          end
        end
        else if op = op_set_tid then begin
          let tid = read_field d el fast in
          if tid < 0 || tid > Event.max_tid then
            bad "packed chunk: thread id %d out of range" tid;
          reserve h tid;
          d.d_cur_tid <- tid
        end
        else if op = op_def then begin
          let id = read_field d el fast in
          let nlen = read_field d el fast in
          if nlen < 0 then bad "negative name length";
          if !pos + nlen > el then bad "truncated name";
          define id (Bytes.sub_string d.src !pos nlen);
          pos := !pos + nlen
        end
        else if op = op_repeat then begin
          let l = read_field d el fast in
          let count = read_field d el fast in
          if l < 1 || op_pos - l < d.start then
            bad "packed chunk: repeat region length %d out of range" l;
          if count < 1 || count > 1 lsl 40 then
            bad "packed chunk: implausible repeat count %d" count;
          d.rep_resume <- !pos;
          build_template d (op_pos - l) op_pos;
          if d.t_n > 0 then begin
            if count > !left / d.t_n then too_many ();
            left := !left - (count * d.t_n)
          end;
          (* An event-free region (only thread switches) is idempotent:
             one pass installs the end state, so replaying it [count]
             times would only spin. *)
          d.rep_rem <- (if d.t_n = 0 then 1 else count);
          d.t_idx <- 0;
          d.rep_on <- true
        end
        else if op = op_defpat then begin
          let k = read_field d el fast in
          if k < 1 || k > pat_kmax then
            bad "packed chunk: pattern length %d out of range" k;
          if d.d_npats >= max_pats then bad "packed chunk: too many patterns";
          if !pos + k > el then bad "packed chunk: truncated pattern";
          let tags =
            Array.init k (fun i ->
                let t = Char.code (Bytes.unsafe_get d.src (!pos + i)) in
                if t < 1 || t > Batch.max_tag then
                  bad "packed chunk: invalid tag %d in pattern" t;
                t)
          in
          pos := !pos + k;
          if d.d_npats >= Array.length d.d_pats then begin
            let grown = Array.make (2 * Array.length d.d_pats) [||] in
            Array.blit d.d_pats 0 grown 0 d.d_npats;
            d.d_pats <- grown
          end;
          d.d_pats.(d.d_npats) <- tags;
          d.d_npats <- d.d_npats + 1
        end
        else bad "unknown packed opcode %d" op
      end
    end
  done;
  d.left <- !left;
  Batch.unsafe_set_length b !n;
  !state = 2
