(** Small statistics helpers used by the metrics and benchmark harness,
    and the one sampler behind every timed bench number. *)

(** [mean xs] is the arithmetic mean. @raise Invalid_argument on []. *)
val mean : float list -> float

(** [geometric_mean xs] is the geometric mean of strictly positive values
    (the aggregation used by Table 1 of the paper).
    @raise Invalid_argument on [] or non-positive inputs. *)
val geometric_mean : float list -> float

(** [variance xs] is the population variance. @raise Invalid_argument on []. *)
val variance : float list -> float

val stddev : float list -> float

(** [percentile p xs] is the [p]-th percentile ([0. <= p <= 100.]) computed
    with linear interpolation on the sorted sample.
    @raise Invalid_argument on []. *)
val percentile : float -> float list -> float

(** [tail_fraction ~at_least xs] is the fraction of samples [>= at_least],
    in [0,1].  Used for the "x% of routines have metric >= y" curves
    (Figures 11, 12 and 14). *)
val tail_fraction : at_least:float -> float list -> float

(** [value_at_top_fraction ~fraction xs] is the largest [y] such that at
    least [fraction] of the samples are [>= y]; i.e. the y-coordinate at
    abscissa [fraction] in the paper's tail curves.
    @raise Invalid_argument on [] or a fraction outside (0,1]. *)
val value_at_top_fraction : fraction:float -> float list -> float

(** Streaming min/max/sum/count accumulator. *)
module Acc : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val sum : t -> float
  val mean : t -> float
  val min : t -> float
  val max : t -> float
end

(** {1 The sampler}

    Every timed number of the bench and of
    {!Aprof_tools.Harness.measure} comes from {!sample}: interleaved
    rounds of wall-clock samples, reported as a {!summary}. *)

(** A sampled quantity: the median of its samples and their 25th and
    75th percentiles ({!percentile}), so [p25 <= median <= p75]. *)
type summary = { median : float; p25 : float; p75 : float }

(** [summary xs] is the median and quartiles of [xs].
    @raise Invalid_argument on [[||]]. *)
val summary : float array -> summary

(** [ratio a b] is the summary of the per-round ratios [a.(i) /. b.(i)]
    of two cells sampled in the same rounds: a ratio is the median of
    per-round ratios, never a ratio of medians, so host drift between
    rounds cancels within each pair.
    @raise Invalid_argument when the lengths differ or are 0. *)
val ratio : float array -> float array -> summary

(** The shortest sample, in seconds (0.02).  A cell whose timed part
    takes less is called again within the same sample until its timed
    parts add up to this, and the sample is their mean. *)
val min_sample : float

(** One configuration of an experiment.  A call runs the cell once: it
    does any untimed setup, calls the timer it is given exactly once
    around the part to time, then does any untimed teardown.  Results a
    cell must report (event counts, server stats) go through its own
    references. *)
type cell = ((unit -> unit) -> unit) -> unit

(** [sample ~now ~rounds cells] runs [rounds] rounds.  Each round runs
    every cell once, in list order, so host drift lands on every cell
    alike.  Before each sample the heap is compacted ([Gc.compact]), for
    every cell, so one cell's garbage is not collected on the next
    one's clock.  A sample is the seconds per call of the cell's timed
    part by the clock [now] (wall time, e.g. [Unix.gettimeofday]),
    repeated up to {!min_sample}.  The result holds one array of
    [rounds] samples per cell, in the order of [cells].  An exception
    from a cell propagates.
    @raise Invalid_argument when [rounds < 1], or when a cell calls its
    timer other than once. *)
val sample : now:(unit -> float) -> rounds:int -> cell list -> float array list
