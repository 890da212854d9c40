(** Incremental batch streams.

    A {!batch_source} is a pull-based source of packed
    {!Event.Batch.t}s: calling it yields the next batch, or [None] when
    the stream is exhausted.  Sources let the profilers and tools consume
    traces of unbounded length — a trace file, a socket, a text trace —
    without ever materializing the whole event sequence, mirroring how
    the paper's Valgrind tool observes billions of events online.  An
    in-memory trace replays through {!Trace.replay} instead, and a live
    VM run pushes its batches through
    {!Aprof_vm.Interp.run_batched}'s callback.

    A source recycles its buffer: the returned batch is only valid until
    the next pull, so consumers must finish with (or copy) a batch before
    pulling again.  Sources are single-use.

    The dual {!batch_sink} is a push-based consumer. *)

(** Raised by decoding sources ({!of_text_channel},
    {!Trace_codec.batch_reader}) on malformed input. *)
exception Decode_error of string

type batch_source = unit -> Event.Batch.t option

type batch_sink = {
  emit_batch : Event.Batch.t -> unit;
      (** Consume one batch.  The batch belongs to the producer and may
          be recycled after the call returns. *)
  close_batch : unit -> unit;
      (** Flush buffered output; called exactly once, after the last
          [emit_batch].  Never closes an underlying channel — the
          channel's owner does. *)
}

(** [of_text_channel ic] decodes the one-event-per-line text format
    ({!Event.of_line}), skipping blank lines, into a recycled batch of
    {!Event.Batch.default_capacity} events per pull.  The channel is
    read lazily; the caller keeps ownership.
    @raise Decode_error on the first malformed line. *)
val of_text_channel : in_channel -> batch_source

(** [text_sink oc] writes each event of each batch in the text format,
    one line per event. *)
val text_sink : out_channel -> batch_sink

(** [drain src f] calls [f] on every batch of [src] and returns the
    number of events it carried. *)
val drain : batch_source -> (Event.Batch.t -> unit) -> int
