(** Process-local telemetry for the Jump-Start boot/fleet pipeline.

    The paper's §VI reliability machinery is an *observability* story: which
    consumers jump-started, which fell back and why, how many boot attempts
    were burned, how long each boot phase took.  This module is the substrate
    the rest of the stack reports into: a metric registry (monotonic
    counters, gauges, fixed-bucket histograms reusing {!Js_util.Stats}), a
    span/phase timer driven by a {e simulated} clock so results are
    deterministic, and a bounded ring buffer of typed events with text and
    JSON exporters.

    Everything is process-local and allocation-light; a sink is threaded
    through the seeder/consumer/fleet code as an optional argument, so
    uninstrumented runs pay nothing. *)

(** Simulated monotonic clock.  The discrete-event simulator
    ({!Js_sim.Region}, through its engine) drives it with {!Clock.set} from
    simulation time; micro layers advance it by deterministic work proxies
    via {!timed}.  Never reads wall time, so two runs with the same seed
    produce byte-identical telemetry. *)
module Clock : sig
  type t

  val create : ?now:float -> unit -> t
  val now : t -> float

  (** Move the clock forward to [time]; ignored if [time] is in the past
      (the clock is monotonic). *)
  val set : t -> float -> unit

  (** Advance by [dt] seconds (non-positive [dt] is ignored). *)
  val advance : t -> float -> unit
end

(** Typed structured events.  [source] strings identify the emitter
    ("consumer", "server.17", ...). *)
type event =
  | Package_selected of { region : int; bucket : int; seeder_id : int }
  | Validation_failed of { stage : string; reason : string }
  | Boot_attempt of { source : string; attempt : int; outcome : string }
  | Fallback of { source : string; reason : string }
  | Seeder_published of { region : int; bucket : int; seeder_id : int; bytes : int }
  | Server_crashed of { server : int; kind : string }
  | Span of { name : string; start : float; dur : float }
  | Mark of { name : string; detail : string }

(** Exported view of a fixed-bucket histogram. *)
type histogram_view = { lo : float; hi : float; counts : int array; total : int }

type t

(** [create ()] — an empty sink.  [capacity] bounds the event ring buffer
    (default 4096); when full, the oldest events are dropped and counted. *)
val create : ?capacity:int -> ?clock:Clock.t -> unit -> t

val clock : t -> Clock.t
val now : t -> float

(** Forget all metrics and events (the clock is left untouched). *)
val reset : t -> unit

(** {2 Metrics} *)

(** [incr t name] bumps the monotonic counter [name] (created at 0). *)
val incr : ?by:int -> t -> string -> unit

val counter : t -> string -> int

(** All counters, sorted by name. *)
val counters : t -> (string * int) list

(** [import_counters t pairs] bulk-adds [(name, delta)] pairs into the
    counter registry — the bridge for subsystems that keep their own cheap
    local counters (e.g. the interpreter's inline-cache hit/miss stats) and
    flush them into a sink at a reporting boundary. *)
val import_counters : t -> (string * int) list -> unit

val set_gauge : t -> string -> float -> unit
val gauge : t -> string -> float option

(** All gauges, sorted by name. *)
val gauges : t -> (string * float) list

(** [observe t name v] adds [v] to the fixed-bucket histogram [name],
    creating it with [lo]/[hi]/[buckets] (defaults 0., 600., 24) on first
    observation; later calls reuse the original bucketing. *)
val observe : ?lo:float -> ?hi:float -> ?buckets:int -> t -> string -> float -> unit

(** All histograms, sorted by name. *)
val histograms : t -> (string * histogram_view) list

(** {2 Spans} *)

(** [span t name f] runs [f] and records a {!Span} event covering the clock
    interval it spanned (useful when the code under [f] drives the clock). *)
val span : t -> string -> (unit -> 'a) -> 'a

(** [timed t name ~cost f] runs [f], advances the clock by [cost result]
    (a deterministic work proxy: bytes decoded, instructions executed, ...)
    and records a {!Span} of that duration. *)
val timed : t -> string -> cost:('a -> float) -> (unit -> 'a) -> 'a

(** [add_span t name ~start ~dur] records a span directly (e.g. from a
    simulator that already knows the phase boundaries).  Does not touch the
    clock. *)
val add_span : t -> string -> start:float -> dur:float -> unit

(** All recorded spans in order: (name, start, dur). *)
val spans : t -> (string * float * float) list

(** {2 Events} *)

(** [record t ev] timestamps [ev] with the clock and appends it to the ring
    buffer. *)
val record : t -> event -> unit

(** Buffered events, oldest first, with their timestamps. *)
val events : t -> (float * event) list

(** Events evicted from the ring buffer so far. *)
val dropped_events : t -> int

(** [merge ~into src] folds the shard [src] into [into], leaving [src]
    unchanged: counters add, histograms fold bucket-wise (same-name
    histograms must share bucketing — @raise Invalid_argument otherwise),
    gauges overwrite [into]'s values, buffered events append with their
    original timestamps (subject to [into]'s ring capacity; [src]'s dropped
    count carries over), and [into]'s clock advances to [max] of the two.
    Counter and histogram totals are commutative, so merging per-domain
    shards in any order reproduces exactly what a single shared registry
    would have counted; gauge values and event ordering follow the caller's
    merge order — merge shards in region-index order for deterministic
    output.  @raise Invalid_argument if [into == src]. *)
val merge : into:t -> t -> unit

(** Aggregated {!Fallback} reasons (reason, occurrences), sorted by reason —
    the "why did servers fall back" rollup the §VI ablations print. *)
val fallback_reasons : t -> (string * int) list

(** {2 Exporters} *)

(** Human-readable dump: counters, gauges, histograms, fallback reasons,
    spans and the tail of the event buffer. *)
val pp_text : Format.formatter -> t -> unit

(** The whole sink as a self-contained JSON document (object keys sorted,
    events in buffer order — deterministic for a deterministic run). *)
val to_json : t -> string

(** A dependency-free JSON validity checker (there is no JSON library in the
    tree), shared by the test suite and the bench harness's emitted-file
    validation. *)
module Json : sig
  (** [parses s] is true iff [s] is one well-formed JSON value with nothing
      trailing. *)
  val parses : string -> bool
end
