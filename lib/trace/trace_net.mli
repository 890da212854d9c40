(** The ATRC decoder, for sockets, files and strings.

    An incremental, sans-IO state machine over the bytes of one input:
    it is the only code that parses headers, framed chunks (versions
    2/3), bare records (version 1), end-of-trace markers and shard-index
    footers, and it decodes chunk payloads through the one chunk cursor
    ({!Trace_chunk}).  There is one way in: {!feed} hands over each
    slice of the input, decoded items come back through the callbacks
    inside it, and {!close} ends the input.  Batches end when full, at
    each end-of-trace marker and at the end of every {!feed}.

    - A connection ({!create}) feeds each slice as it arrives.  Several
      traces may follow back-to-back on one connection, each delimited
      by its own header and end marker, so a client can stream recorded
      trace files verbatim.
    - A file or string ({!read_input}) holds exactly one trace, fed in
      slices read from it.  Anything after the trace but its footer — a
      second trace included — is trailing data.

    A machine keeps only its input's parse state.  What a decode pass
    needs besides — the recycled batch, the chunk cursors, salvage's
    stage, and room to assemble an item that straddles slices — is a
    {!scratch} the caller lends to each {!feed}: {!feed} drains every
    chunk it opens before it returns, so one scratch serves every input
    its owner decodes, one at a time.  Complete items are decoded in
    place, from the slice they arrived in.  The bytes of an unfinished
    item stay in their slices, which the machine holds until the item
    completes; held bytes are bounded by one item (a frame header plus
    at most [max_frame_bytes] of payload, or a footer of at most 64 KiB
    more), in at most two slices more than those bytes fill.  Decoded
    work is never queued — callers implement backpressure by not
    feeding.

    Corruption.  In strict mode (the default) the first malformation
    raises {!Trace_stream.Decode_error}; the machine is then poisoned
    and every later call re-raises.  With [~salvage:true] each v2/v3
    chunk is decoded whole before any of it is delivered: a damaged
    chunk is skipped and reported through [on_drop] (the frame length
    re-synchronizes), and a good one arrives as one batch of any size.
    Damage that no frame length bounds — broken framing, any version-1
    malformation, a damaged footer, a truncated stream — is reported as
    one terminal drop, after which the rest of the input is discarded
    and {!close} is clean.  Only an unreadable header still raises.
    A version-3 chunk that would decode to more than
    {!Trace_packed.max_chunk_events} events is malformed: its writer
    never flushes more, and a repeat count is checked against that
    budget before it is expanded. *)

type callbacks = {
  on_batch : Event.Batch.t -> unit;
      (** Validated decoded events, in stream order: at most the
          scratch's [batch_size] of them, except that salvage mode
          delivers each v2/v3 chunk whole.  The batch belongs to the
          scratch and is recycled: it is valid only until the callback
          returns. *)
  on_define : int -> string -> unit;
      (** A routine-name definition, in stream order, always before the
          first delivered batch that could reference it. *)
  on_trace_end : unit -> unit;
      (** The end-of-trace marker was consumed; every batch of that
          trace has been delivered. *)
  on_drop : Trace_chunk.drop -> unit;
      (** Salvage mode only: a damaged region was skipped.  Offsets are
          relative to the current trace's first byte, so they line up
          with file offsets when the client streams a file verbatim:
          a skipped chunk reports its payload offset and length, a
          terminal drop the offset where decoding stopped. *)
}

type t

(** The decode scratch of a {!feed}: the recycled batch, one chunk cursor
    per format version, salvage's whole-chunk stage and the assembly
    area for straddling items.  Not thread-safe: one scratch serves one
    {!feed} at a time.  Between feeds it keeps at most 256 KiB of
    assembly area and a 131,072-event stage, besides its batch. *)
type scratch

(** [scratch ()] is a fresh, empty scratch; its parts are allocated or
    grown on first use.
    @param batch_size capacity of the recycled batch every strict-mode
    event passes through, raised to 16 (the longest packed tag pattern,
    which files written before the writer stopped defining patterns may
    carry) if smaller (default {!Event.Batch.default_capacity}). *)
val scratch : ?batch_size:int -> unit -> scratch

(** [create ~release callbacks] is a fresh connection decoder.  It
    allocates no buffer: bytes are decoded where {!feed} finds
    them.  [release] takes back each slice given to {!feed} once the
    machine no longer reads it ([ignore] when the caller does not
    recycle slices).
    @param salvage skip damaged regions (reported through [on_drop])
    instead of failing the connection (default [false]).
    @param max_frame_bytes largest acceptable chunk payload; a frame
    announcing more is framing damage (default 64 MiB). *)
val create :
  ?salvage:bool ->
  ?max_frame_bytes:int ->
  release:(Bytes.t -> unit) ->
  callbacks ->
  t

(** [feed t scratch bytes ~pos ~len] hands over one received slice,
    [bytes[pos..pos+len)], and decodes as far as the bytes received so
    far allow, on [scratch], running callbacks synchronously.  [bytes]
    then belongs to [t] until [t] passes it to [release]: during this
    feed when no unfinished item needs it, otherwise once that item
    completes or the machine fails — exactly once, unless [t] is
    dropped while it still holds [bytes].  While
    [t] holds [bytes] it may write past [pos + len], so a fed buffer
    must not be shared with other data.
    @raise Trace_stream.Decode_error on malformed input (and on every
    call after one), with the machine poisoned.  An exception a callback
    raises escapes too, and poisons the machine as well.
    @raise Invalid_argument when [pos]/[len] do not delimit a valid
    range of [bytes]. *)
val feed : t -> scratch -> Bytes.t -> pos:int -> len:int -> unit

(** [close t] signals end of stream.  Clean only between traces (or on
    a connection that carried no bytes at all); under salvage a stream
    cut mid-trace ends with a terminal drop instead.
    @raise Trace_stream.Decode_error when a strict stream ends mid-trace
    or with undecodable bytes pending, and when a file or string ends
    before a whole header (["truncated header"]). *)
val close : t -> unit

(** Bytes currently held awaiting a complete item — bounded by one
    frame header + payload. *)
val pending_bytes : t -> int

(** Traces fully decoded (end marker consumed) so far. *)
val traces_completed : t -> int

(** The poisoning failure, if the machine has one. *)
val failure : t -> string option

(** [read_input ~salvage ~max_frame_bytes ~chunk_bytes scratch
    callbacks input] decodes the one trace of a file or string: it
    builds a one-trace machine, reads [input] in slices of
    [chunk_bytes], {!feed}s each on [scratch] and {!close}s the machine
    when [input] returns [0].  [input buf pos len] stores up to [len]
    bytes at [buf.(pos)] and returns how many (the contract of
    [In_channel.input]).  Slices are recycled through the machine's
    release, so memory is the slices an unfinished item is in plus one.
    [on_trace_end] runs once, after the trace's last batch.
    @raise Trace_stream.Decode_error as {!feed} and {!close} do. *)
val read_input :
  salvage:bool ->
  max_frame_bytes:int ->
  chunk_bytes:int ->
  scratch ->
  callbacks ->
  (Bytes.t -> int -> int -> int) ->
  unit
