(** Compact binary trace format.

    The wire format is a 5-byte versioned header (magic ["ATRC"] plus a
    version byte) followed by the record region.  Every record starts
    with a one-byte tag: tags 1–14 are the {!Event.t} variants, whose
    integer fields are zigzag varints (LEB128, so small values — the
    common case for thread ids and interned routine ids — cost one
    byte); tag 15 is a routine-name definition [(id, name)] binding an
    interned routine id to its name.  Definitions are interleaved with
    the events — the writer emits one immediately before the first
    [Call] that references the routine — so the intern table travels
    inside the stream and both ends can operate strictly online, never
    holding more than one I/O chunk in memory.

    Integers round-trip over the full [int] range (zigzag encoding);
    names round-trip byte-exactly, including empty and non-ASCII ones.
    Varints are canonical — a redundant zero continuation group is
    rejected — so each trace has exactly one byte representation.

    {2 Version 2: checksummed chunk frames}

    In format version 2 (the default output), the record region is a
    sequence of self-delimiting frames, each one writer flush unit:

    {v
    frame := paylen:uvarint crc32c:le32 payload[paylen]
    v}

    [paylen] is a plain (non-zigzag) canonical varint and is never 0;
    [crc32c] is the CRC32C of the payload bytes; records never span
    frames.  Readers verify the checksum {e before} any varint decoding,
    so the [unsafe_get] decode fast path never touches corrupt bytes.
    The end-of-trace marker is a single 0 byte where the next frame
    length would be (the same byte as the version-1 marker).  Version-1
    files — a bare record stream, no frames or checksums — remain fully
    readable; writers can still produce them via [?format_version].

    A complete trace ends with the end-of-trace marker, so truncation is
    detected even when it falls exactly on a record boundary.  Any
    malformation — a missing marker, a truncated record, a checksum
    mismatch, trailing bytes after the marker, an unknown tag, a bad
    header — raises {!Trace_stream.Decode_error}.

    {2 Version 3: redundancy-suppressed chunks}

    Format version 3 keeps the version-2 container byte-for-byte — the
    same header, frames, end marker, and shard index — but each frame's
    payload is a {e stored} chunk produced by two extra layers:

    {v
    stored := enc:byte body
    enc    := 0x01                   ; packed event stream, raw
            | 0x03                   ; packed event stream, entropy-coded
    v}

    The packed event stream replaces the per-record [tid] with a current
    thread id (opcode 16 switches it), delta-encodes address arguments
    against a per-(chunk, thread) register, and collapses repeated event
    groups into a repeat opcode (17: replay the previous [L] bytes [n]
    more times).  Files written before the writer stopped defining tag
    patterns may also dictionary-code recurring event-tag sequences (18
    defines a pattern, 19 / short opcodes 32–255 instantiate one); every
    reader still decodes them, and no writer emits them.
    All coding context resets at each chunk boundary, so chunks stay
    independently decodable and the shard index, salvage, and the
    seeking readers work unchanged on the stored bytes.  The optional
    entropy stage is an order-0 canonical Huffman pass over the packed
    bytes, applied only when it shrinks the chunk.

    The frame CRC32C covers the stored payload exactly as written, and
    the index entries describe the stored byte ranges, while [events]
    still counts decoded events.  Version-3 writers additionally flush a
    chunk after 65536 events, so repeat suppression cannot collapse the
    whole trace into one shard and starve the parallel replay of work
    units.  Writers emit version 2 unless [?format_version:3] is
    given.

    {2 Shard index}

    After the end-of-trace marker, {!batch_writer} appends a seekable
    shard-index footer describing every flushed chunk (its byte length,
    event count, the set of record tags present, its CRC32C in version
    2, and the set of thread ids present), so a parallel replay can
    decide which chunks concern it and seek straight to them.  The
    footer layout is:

    {v
    "ATRI" version:byte nchunks:varint chunk*   ; the footer body
    footer_offset:le64 "ATRI"                   ; fixed 12-byte trailer
    chunk := bytes:varint events:varint tag_mask:varint
             [crc:varint]                       ; version >= 2 only
             ntids:varint tid_delta:varint*     ; tids ascending
    v}

    The index version byte always equals the trace version.  The fixed
    trailer lets a reader find the footer from the end of the file; a
    file without the trailing magic is an index-less trace and still
    reads normally.

    Every reader parses an entry with one parser, which requires the
    tids to be ascending within [0, Event.max_tid] and an entry with
    events to name a thread.  Each reader then checks what it relies
    on: the sequential readers ({!read}) match [bytes] and [crc]
    against the streamed frames (versions 2 and 3); {!shards} checks that the chunks
    cover every byte up to the footer; {!chunk_session} checks each
    chunk's [crc]; indexed salvage checks the decoded event count
    against [events].  A sharded replay picks chunks by [tag_mask] and
    [tids], so its shards hold each decoded record's tag and thread to
    them ({!Aprof_tools.Tool.replay_parallel}).

    {2 Writer}

    One encode loop writes every version: {!batch_writer} into a
    channel and {!to_string} into a string.  [to_string tr] is exactly
    what [batch_writer ~index:false] writes for [tr].  The loop owns
    each chunk's index entry, the flush rule, the framing and the
    footer.  The version difference is one chunk encoder, the write-side
    twin of the readers' chunk cursor: plain records for versions 1
    and 2, packed events sealed by the transform layer for version 3.

    {2 Readers}

    One decoder parses every byte stream: the sans-IO machine
    {!Trace_net}, which decodes chunk payloads through the one chunk
    cursor ({!Trace_chunk}).  The readers here are thin drivers of it
    that push each decoded batch into a callback: {!read} feeds the
    machine a channel in slices, as a connection is fed, and
    {!of_string} feeds it a string as one slice.  The seek paths
    ({!chunk_session}, salvage over an index) drive the chunk cursor
    directly.  A file or string holds exactly one trace. *)

val magic : string

(** The format version writers emit by default (2). *)
val version : int

(** The newest format version this module reads and writes (3). *)
val max_version : int

(** [file_version ic] seeks to the start of [ic] and returns the trace's
    format version.
    @raise Trace_stream.Decode_error on a bad header. *)
val file_version : in_channel -> int

(** {1 Streaming}

    The writer and readers move whole {!Event.Batch.t}s of raw int
    fields at a time through a reused buffer/chunk, never constructing
    an [Event.t].  A reader hands each batch to a callback; the batch is
    recycled once the callback returns. *)

(** [batch_writer oc] is a batch sink encoding packed events into [oc].
    Output is buffered; the sink's [close_batch] writes the end-of-trace
    marker (and the index footer) and flushes the buffer, but leaves the
    channel open — a trace without the marker is rejected as truncated.
    The header is written immediately.
    @param routine_name names embedded in definition records (default
    [fun id -> "routine_<id>"]).
    @param chunk_bytes flush threshold in bytes (default 64 KiB).
    @param index write the shard-index footer on close (default [true];
    pass [false] for an old-style index-less trace).
    @param format_version wire format to emit, [1]..[3] (default
    {!version}); version-1 and version-2 output is byte-identical to
    what pre-split writers produced.
    @param entropy version 3 only: entropy-code each chunk when that
    makes it smaller (default [false]: the Huffman pass roughly halves
    the packed bytes again but costs decode throughput, so it is opt-in
    for archival traces rather than replay working sets).
    @raise Invalid_argument on an unsupported [format_version]. *)
val batch_writer :
  ?chunk_bytes:int ->
  ?index:bool ->
  ?format_version:int ->
  ?entropy:bool ->
  ?routine_name:(int -> string) ->
  out_channel ->
  Trace_stream.batch_sink

(** {1 Shard index} *)

(** One writer flush unit, as described by the index footer.  [offset]
    and [bytes] delimit its record payload in the file (excluding the
    version-2 frame header); [events] counts event records (definition
    records excluded); [tag_mask] has bit [t] set iff a record with tag
    [t] is present; [crc] is the payload's CRC32C, or [-1] in a
    version-1 file; [tids] are the distinct thread ids appearing in the
    chunk, ascending. *)
type shard = {
  offset : int;
  bytes : int;
  events : int;
  tag_mask : int;
  crc : int;
  tids : int array;
}

(** [shards ~path ic] reads the shard index of a seekable channel.
    [None] means the file carries no index (written before the index
    existed, or with [~index:false]) — fall back to {!read}.
    The channel position is unspecified afterwards.
    @param path the file name used in error messages (default ["trace"]).
    @raise Trace_stream.Decode_error when the trailing magic is present
    but the footer is truncated or inconsistent; the message names
    [path] and the offending byte offset. *)
val shards : ?path:string -> in_channel -> shard array option

(** [chunk_session ic] is the seek path for callers that pick their
    chunks from the index (the sharded replay engine, through
    {!Aprof_tools.Tool.Shards}): [read sh f] seeks to, checksums, and
    decodes the single chunk [sh] with the chunk cursor, hands each
    batch to [f] and returns the chunk's event count.  It reuses one
    batch, one byte buffer, and one name table across calls — so
    visiting a chunk costs no allocation beyond the first, largest
    chunk.  Because routine-name definitions live in the chunk holding
    the routine's first [Call], the name table only covers the chunks
    read so far; a parallel replay unions the tables of its workers.
    Every batch is validated like the sequential readers' batches. *)
val chunk_session :
  ?batch_size:int ->
  in_channel ->
  (int, string) Hashtbl.t * (shard -> (Event.Batch.t -> unit) -> int)

(** {1 Salvage}

    Reading with [~on_corrupt:(`Skip report)] trades completeness for
    progress: instead of aborting on the first malformed chunk, the
    reader skips it, reports exactly what was dropped, and
    re-synchronizes at the next chunk boundary. *)

(** One skipped region of a damaged trace.  [drop_chunk] is the chunk
    ordinal (0-based; [-1] when the damaged file offers no chunk
    structure to count by), [drop_offset] the file byte offset of the
    dropped region — a skipped chunk's payload, or where a terminal drop
    begins ([-1] if unknown) — [drop_bytes] its payload length ([-1] if
    unknown), [drop_events] the event count according to the shard
    index ([-1] when no index is available), and [drop_reason] the bare
    cause (the other fields carry the position).  Every salvage path
    reports the same record for the same damage. *)
type drop = Trace_chunk.drop = {
  drop_chunk : int;
  drop_offset : int;
  drop_bytes : int;
  drop_events : int;
  drop_reason : string;
}

(** [read ~on_corrupt ic f] reads the binary trace of a seekable
    channel, hands each decoded batch to [f] (a recycled batch, valid
    until [f] returns), and returns the routine-name table and the
    number of events handed over.  The table fills in as the trace
    decodes, each name before the first batch that can use it.

    With [`Fail] the channel is fed to {!Trace_net} from its current
    position in [chunk_bytes] slices (default 64 KiB), each batch
    holding up to [batch_size] events.  Every format version is
    accepted; each chunk's checksum is verified before its records are
    decoded, and the streamed frame sequence is cross-checked against
    the index footer when one is present (catching duplicated, deleted,
    or reordered frames, which are individually self-consistent).  The
    first malformation raises {!Trace_stream.Decode_error}, after the
    batches before it went to [f].

    With [`Skip report], damaged regions are skipped and [report] is
    called once per skipped region, in file order, before the next
    surviving batch.  Chunks are delivered all-or-nothing: a chunk
    either decodes completely (and arrives as one batch) or is dropped
    whole, so a surviving prefix of a damaged chunk can never leak into
    the profile.  Re-synchronization uses, in order of preference: the
    ATRI shard index (exact boundaries, exact dropped-event counts —
    also the only way duplicated or reordered chunk frames are
    detected; the chunk cursor reads one indexed chunk at a time), the
    version-2 frame lengths ({!Trace_net} under salvage; the remainder
    of the file is dropped as one terminal region once the framing
    itself, the footer, or the end of the file is damaged), or — for an
    index-less version-1 file, which has no boundaries to
    re-synchronize on — nothing: the first malformation drops the rest
    of the file as one terminal region, keeping the batches handed over
    before it.

    Even under [`Skip] some damage is beyond salvage and raises
    {!Trace_stream.Decode_error}: an unreadable header, and a file whose
    trailer promises an index that then fails to parse (the boundary
    authority itself is untrustworthy).
    @param path the file name used in error messages (default ["trace"]). *)
val read :
  ?chunk_bytes:int ->
  ?batch_size:int ->
  ?path:string ->
  on_corrupt:[ `Fail | `Skip of drop -> unit ] ->
  in_channel ->
  (Event.Batch.t -> unit) ->
  (int, string) Hashtbl.t * int

(** {1 Whole-trace convenience} *)

(** [to_string tr] encodes an in-memory trace: the bytes
    [batch_writer ~index:false] writes for [tr], without a shard index. *)
val to_string :
  ?format_version:int ->
  ?entropy:bool ->
  ?routine_name:(int -> string) ->
  Trace.t ->
  string

(** [of_string s] decodes a full binary trace of any version,
    returning the events and the embedded routine-name table (in
    definition order).  It feeds the whole string to {!Trace_net} as one
    slice and then closes it, so it accepts and rejects exactly what
    [read ~on_corrupt:`Fail] does.  All decode failures are reported as
    [Error]. *)
val of_string : string -> (Trace.t * (int * string) list, string) result

(** {1 Format sniffing} *)

(** [detect ic] peeks at the first bytes of a seekable channel and
    reports whether it holds this binary format or (presumably) the text
    format; the channel is rewound to the start. *)
val detect : in_channel -> [ `Binary | `Text ]
