(** Incremental batch streams.

    Every producer pushes packed {!Event.Batch.t}s into its consumer's
    [on_batch]: a live VM run through {!Aprof_vm.Interp.run_batched}'s
    callback, an in-memory trace through {!Trace.replay}, and every
    reader of a trace file, string or socket through the one decoder
    ({!Trace_net.feed}) or, for the text format, {!read_text}.  Profilers
    and tools therefore consume traces of unbounded length without ever
    materializing the event sequence, as the paper's Valgrind tool
    observes billions of events online.  A pushed batch belongs to its
    producer and may be recycled once the consumer returns.

    The writers' side is a {!batch_sink}. *)

(** Raised by decoders ({!read_text}, {!Trace_codec.read},
    {!Trace_net.feed}) on malformed input. *)
exception Decode_error of string

type batch_sink = {
  emit_batch : Event.Batch.t -> unit;
      (** Consume one batch.  The batch belongs to the producer and may
          be recycled after the call returns. *)
  close_batch : unit -> unit;
      (** Flush buffered output; called exactly once, after the last
          [emit_batch].  Never closes an underlying channel — the
          channel's owner does. *)
}

(** [read_text ic f] decodes the one-event-per-line text format
    ({!Event.of_line}), skipping blank lines, and hands [f] a recycled
    batch of up to {!Event.Batch.default_capacity} events at a time.  It
    returns the number of events read.  The caller keeps ownership of
    the channel.
    @raise Decode_error on the first malformed line. *)
val read_text : in_channel -> (Event.Batch.t -> unit) -> int

(** [text_sink oc] writes each event of each batch in the text format,
    one line per event. *)
val text_sink : out_channel -> batch_sink
