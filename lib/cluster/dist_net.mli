(** Simulated package-delivery network for the fleet simulation, and the
    one fault model of package delivery.

    The paper's packages travel through a real distributed-storage service:
    fetches fail transiently, take time, time out, and can return {e stale}
    profiles from a previous release.  Per-(region, bucket) replica sets of
    {!Server.package}s sit between C2 seeders and C3 consumers, with
    disaster windows.  A fetch is a ladder: bounded retries with exponential
    backoff and deterministic jitter ({!Js_util.Backoff}) against the home
    region, then one attempt per foreign region, then give up.  A stale
    replica is retried (the consumer's fingerprint gate would reject it).
    An exhausted ladder is {!Unavailable}: the fleet degrades that server
    to a no-Jump-Start boot.

    {b RNG neutrality}: with the {!default_config} (all rates and latencies
    zero, one region) and no disaster window, a fetch consumes exactly one
    draw per successful pick and emits no [dist.*] telemetry. *)

(** The fault record. *)
type network = {
  fetch_fail_rate : float;  (** probability one attempt fails outright *)
  fetch_timeout : float;  (** per-attempt timeout in seconds; 0 = none *)
  latency_mean : float;  (** mean fetch latency; 0 = instantaneous *)
  stale_rate : float;  (** probability a replica serves a stale package *)
}

(** All rates/latencies zero: a perfect, instantaneous network. *)
val default_network : network

(** [validate network backoff] requires rates in [\[0, 1\]], finite
    non-negative times and backoff fields, and [backoff.max_attempts >= 1].
    @raise Invalid_argument naming the first bad field. *)
val validate : network -> Js_util.Backoff.config -> unit

type config = {
  regions : int;
      (** replica regions; region 0 is the fleet's home.  With more than one,
          a fetch falls back to every foreign region in turn. *)
  network : network;  (** the fault record *)
  backoff : Js_util.Backoff.config;  (** retry schedule per boot fetch *)
}

val default_config : config

(** Does this config change behaviour at all vs. a direct replica pick? *)
val active : config -> bool

(** Fetch-ladder counters (updated only when the ladder runs).  The
    invariant: [attempts = deliveries + failures + timeouts + stale_rejects
    + empty_probes].

    Internally the network keeps one shard per fetcher {e home} region and
    [fetch ~region:home] touches only that shard — the single-writer
    discipline the multi-region simulator's barrier loop relies on when its
    regions run on separate domains.  {!counters} folds the shards (commutative integer addition)
    into a fresh snapshot, so totals are independent of region execution
    order; the returned record is a snapshot, not a live view. *)
type counters = {
  mutable attempts : int;
  mutable failures : int;
  mutable timeouts : int;
  mutable stale_rejects : int;
  mutable cross_region_fetches : int;  (** subset of [attempts] *)
  mutable deliveries : int;
  mutable empty_probes : int;  (** attempts that found no replica *)
}

(** All zero. *)
val fresh_counters : unit -> counters

type t

(** @raise Invalid_argument when [regions < 1] or {!validate} rejects the
    fault record. *)
val create : config -> t

(** Snapshot of the summed per-region counter shards (see {!type-counters}). *)
val counters : t -> counters
val config : t -> config

(** {2 Disaster schedules}

    Fault windows are fixed before the run starts and reachability is a pure
    function of simulation time — never of event-processing order — so
    epoch-barrier and merged multi-region simulations stay byte-identical.
    Setting any window activates the full fetch ladder (and its counters)
    even under an otherwise-inactive config. *)

(** [set_region_down t ~region ~from_] makes [region]'s replica store
    unreachable from time [from_] on: publishes skip it and fetch attempts
    against it fail, forcing its consumers onto the cross-region fallback
    (the seeder-outage scenario when [region] is the seeder's). *)
val set_region_down : t -> region:int -> from_:float -> unit

(** [set_region_partition t ~region ~from_ ~until] cuts [region]'s consumers
    off from the whole network during [\[from_, until)]: every attempt they
    make (home or cross-region) fails — the dist-net-partition-during-publish
    scenario. *)
val set_region_partition : t -> region:int -> from_:float -> until:float -> unit

(** [publish t ~now ~bucket pkg] replicates [pkg] into every region whose
    store is reachable at [now]; each copy is fetchable at once. *)
val publish : t -> now:float -> bucket:int -> Server.package -> unit

type outcome =
  | Delivered of Server.package * float  (** package + total fetch delay *)
  | Unavailable of float  (** ladder exhausted; seconds wasted waiting *)
  | Not_found  (** every attempt found an empty replica set *)

(** [fetch t rng ~now ~region ~bucket] — one consumer's package fetch at
    simulation time [now], bumping the [region] shard of the counters.
    Each attempt runs, in order: reachability (no draw), the failure draw,
    the latency draw and timeout check, the replica pick, the stale draw;
    up to [backoff.max_attempts] home attempts with a backoff wait between
    them (an empty replica set ends them), then one attempt per foreign
    region.

    With [telemetry], attempts bump [dist.fetch_attempts] (plus
    [dist.cross_region] for foreign-region attempts), failures
    [dist.fetch_failures], timeouts [dist.timeouts], stale replicas
    [dist.stale_rejects]; a delivery observes its latency in the
    [dist.fetch_seconds] histogram. *)
val fetch :
  ?telemetry:Js_telemetry.t ->
  t ->
  Js_util.Rng.t ->
  now:float ->
  region:int ->
  bucket:int ->
  outcome
