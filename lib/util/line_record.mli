(** Line records: the one text layout of profile dumps ([format,3]) and
    cost-model stores ([costmodel,1]).

    A dump is a sequence of lines, each ended by LF.  A reader drops one
    final CR from a line (so a CRLF file reads as the LF file it was
    written as), refuses a CR anywhere else in it (no writer writes
    one), skips empty lines, and changes nothing else: no blank is
    trimmed anywhere.  A line is one record: comma-separated fields, the
    first naming the record's kind.  Every field but a record's last
    holds no comma; a text last field runs verbatim to the end of the
    line, commas and leading or trailing blanks included, so a routine
    name comes back byte for byte.  A number field is exactly what the
    writer printed: a blank in one is an error.

    A dump opens with a [<kind>,<version>] header.  A reader accepts
    versions 1 up to the one it knows, refuses newer ones instead of
    misreading them, and reports every failure as [line N: ...].

    Writers refuse, with [Invalid_argument], any text a reader could not
    return: a line break anywhere ({!writable}), or a comma in a field
    that is not last. *)

(** {1 Writing} *)

(** [writable s] is whether [s] holds no CR or LF, either of which would
    end its record early and let the rest read as records of their own.
    The ingest daemon fails a stream that defines a routine name which
    is not writable, so its snapshots never hold one. *)
val writable : string -> bool

type writer

(** [writer ~kind ~version] is a dump holding only the
    [<kind>,<version>] header. *)
val writer : kind:string -> version:int -> writer

(** [record w kind] starts a record of kind [kind]. *)
val record : writer -> string -> unit

(** Append one field to the open record.  [add_float] prints with
    [%.17g], which reads back bit for bit (any nan as a nan).
    @raise Invalid_argument when an [add_text] field holds a comma, CR
    or LF. *)
val add_int : writer -> int -> unit

val add_float : writer -> float -> unit
val add_text : writer -> string -> unit

(** [add_last w s] appends [s] verbatim as the record's last field and
    ends the record.  @raise Invalid_argument unless [s] is {!writable}. *)
val add_last : writer -> string -> unit

(** [eol w] ends a record whose last field is a number. *)
val eol : writer -> unit

val contents : writer -> string

(** {1 Reading} *)

(** A cursor over one record's fields, after its kind. *)
type fields

(** [read ~kind ~version ?headerless parsers s] reads every record of
    [s].  A [<kind>,<v>] record checks the version ([1 <= v <= version]);
    any other record goes to the parser of its kind in [parsers], which
    must take every field of it.  Unless [headerless], a record before
    the first header is an error.  [Error] is ["line N: ..."], naming
    the record kind and the field that failed. *)
val read :
  kind:string ->
  version:int ->
  ?headerless:bool ->
  (string * (fields -> unit)) list ->
  string ->
  (unit, string) result

(** Take the next field of the record; a missing or malformed one fails
    the record. *)
val int : fields -> int

val float : fields -> float
val text : fields -> string

(** [last f] is the rest of the line, verbatim. *)
val last : fields -> string

(** [fail fmt] fails the record being read with a message. *)
val fail : ('a, unit, string, 'b) format4 -> 'a

(** [read_file path] is the contents of [path]; [Error] carries the
    system's message when it cannot be read. *)
val read_file : string -> (string, string) result
