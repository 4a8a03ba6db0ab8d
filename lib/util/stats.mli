(** Small statistics helpers used by the simulators and benches. *)

(** [mean xs] is the arithmetic mean.  A single-element array returns that
    element.  @raise Invalid_argument on empty. *)
val mean : float array -> float

(** [stddev xs] is the population standard deviation.  A single-element
    array (and any constant array) returns [0.].
    @raise Invalid_argument on empty. *)
val stddev : float array -> float

(** [percentile xs p] returns the [p]-th percentile ([p] in [\[0,100\]]) using
    linear interpolation between closest ranks.  Does not mutate [xs].
    Sorts with [Float.compare]; [-inf]/[+inf] order correctly.  A
    single-element array returns that element for every [p].
    @raise Invalid_argument on empty input or if any sample is NaN (a NaN
    would otherwise silently poison the sort order). *)
val percentile : float array -> float -> float

(** [median xs] is [percentile xs 50.]. *)
val median : float array -> float

(** [geomean xs] is the geometric mean (all values must be positive). *)
val geomean : float array -> float

(** [ci_bootstrap ?replicates ?confidence ~seed xs stat] is a percentile
    bootstrap confidence interval [(lo, hi)] for [stat] over [xs]: resample
    [xs] with replacement [replicates] times (default 1000), evaluate [stat]
    on each resample, and take the [(1-confidence)/2] and [(1+confidence)/2]
    percentiles of the replicate distribution (default [confidence] 0.95).
    Deterministic for a given [seed] (the resampling stream is its own
    SplitMix64 generator), so bench gates built on it are reproducible.  A
    single-element input yields the degenerate interval [(stat xs, stat xs)].
    @raise Invalid_argument on empty input, [replicates <= 0] or a
    confidence outside (0, 1). *)
val ci_bootstrap :
  ?replicates:int ->
  ?confidence:float ->
  seed:int ->
  float array ->
  (float array -> float) ->
  float * float

(** Accumulates a time series of (time, value) samples and answers
    integral-style queries; used for RPS/latency-over-uptime curves and
    capacity-loss computation. *)
module Series : sig
  type t

  val create : unit -> t
  val add : t -> time:float -> value:float -> unit
  val length : t -> int

  (** Samples in insertion order. *)
  val to_array : t -> (float * float) array

  (** [integral t ~until] integrates value over time (trapezoidal) from the
      first sample up to time [until].  Consistent with [value_at]'s clamping,
      a finite [until] beyond the final sample extends the series flat at its
      last value; an infinite [until] integrates exactly the sampled range. *)
  val integral : t -> until:float -> float

  (** [value_at t time] linearly interpolates the series at [time]; clamps to
      the first/last sample outside the recorded range. *)
  val value_at : t -> float -> float

  (** [resample t ~step ~until] returns regularly spaced samples, convenient
      for printing figures. *)
  val resample : t -> step:float -> until:float -> (float * float) array

  (** [capacity_loss t ~peak ~until] is the fraction of the ideal capacity
      [peak * until] that the series failed to deliver:
      [1 - integral(t)/(peak * until)].  Matches the paper's definition of
      the area above the normalized-RPS curve. *)
  val capacity_loss : t -> peak:float -> until:float -> float
end

(** Mergeable streaming quantile estimator (DDSketch-style geometric
    buckets) with a configurable {e relative} accuracy guarantee: the value
    returned for any quantile is within a factor [1 ± accuracy] of some
    value actually observed at that rank.  Used for the discrete-event
    simulator's p50/p95/p99 latency accounting (per-server sketches merged
    into fleet-wide ones) and for fleet-RPS summaries.  Deterministic: the
    answer depends only on the multiset of added values. *)
module Quantile : sig
  type t

  (** [create ?accuracy ()] — default accuracy 0.01 (1% relative error).
      @raise Invalid_argument unless [0 < accuracy < 1]. *)
  val create : ?accuracy:float -> unit -> t

  val accuracy : t -> float
  val count : t -> int

  (** [add t x] records a non-negative finite sample.  Values below 1e-9
      land in a dedicated zero bucket.  Allocates nothing once the sketch's
      bucket window covers [x].
      @raise Invalid_argument on negatives, NaN or [infinity]. *)
  val add : t -> float -> unit

  (** [merge t other] folds [other]'s counts into [t] ([other] unchanged).
      Exact: equivalent to having added both streams into one sketch.
      @raise Invalid_argument on mismatched accuracy. *)
  val merge : t -> t -> unit

  (** [quantile t q], [q] in [\[0,1\]].  @raise Invalid_argument on empty. *)
  val quantile : t -> float -> float

  val p50 : t -> float
  val p95 : t -> float
  val p99 : t -> float

  (** Sketch of a series' values (times ignored; negatives clamped to 0),
      for summarizing e.g. a fleet-RPS curve. *)
  val of_series : Series.t -> t
end

(** Fixed-width histogram over [\[lo, hi)]. *)
module Histogram : sig
  type t

  val create : lo:float -> hi:float -> buckets:int -> t
  val add : t -> float -> unit
  val count : t -> int
  val bucket_counts : t -> int array

  (** [merge ~into src] folds [src]'s bucket counts into [into] — the
      commutative shard fold used when per-domain telemetry registries are
      reconciled at a barrier.  Both histograms must share [lo]/[hi] and the
      bucket count.  @raise Invalid_argument on a shape mismatch. *)
  val merge : into:t -> t -> unit

  (** Approximate quantile from bucket midpoints. *)
  val quantile : t -> float -> float
end
