(** Simulated package-delivery network for the fleet simulation (macro
    level; the micro-level twin is {!Jumpstart.Dist_store}).

    Models the distributed-storage service between C2 seeders and C3
    consumers: per-(region, bucket) replica sets of {!Server.package}s,
    publish (replication) latency, transient fetch failures, a latency
    distribution (exponential body + optional Pareto tail) with per-attempt
    timeouts, and stale replicas that still hold the previous release's
    package.  Consumers fetch through a policy ladder: bounded retries with
    exponential backoff and deterministic jitter ({!Js_util.Backoff}), then
    one cross-region fallback fetch per foreign region, then
    {!Unavailable} — the fleet degrades that server to a no-Jump-Start
    boot.

    {b RNG neutrality}: with the {!default_config} (all rates and latencies
    zero, one region, cross-region off), {!active} is [false] and a fetch
    consumes exactly one draw per successful pick — byte-identical to the
    historical direct-pick behaviour — and emits no [dist.*] telemetry. *)

type config = {
  regions : int;  (** replica regions; region 0 is the fleet's home *)
  fetch_fail_rate : float;  (** probability one fetch attempt fails *)
  fetch_timeout : float;  (** per-attempt timeout in seconds; 0 = none *)
  fetch_latency_mean : float;  (** mean fetch latency; 0 = instantaneous *)
  tail_prob : float;  (** probability a latency sample is tail-distributed *)
  tail_alpha : float;  (** Pareto shape of the latency tail *)
  stale_rate : float;  (** probability a replica serves a stale package *)
  cross_region : bool;  (** enable the cross-region fallback fetch *)
  backoff : Js_util.Backoff.config;  (** retry schedule per boot fetch *)
  publish_latency_mean : float;
      (** mean replication delay from publish to fetchability; 0 = instant *)
}

val default_config : config

(** Does this config change behaviour at all vs. a direct store pick? *)
val active : config -> bool

(** Fetch-ladder counters (updated only when {!active}).  The ladder
    invariant: [attempts = deliveries + failures + timeouts + stale_rejects
    + empty_probes].

    Internally the store keeps one shard per fetcher {e home} region and
    [fetch ~region:home] touches only that shard — the single-writer
    discipline the parallel simulator relies on when regions run on separate
    domains.  {!counters} folds the shards (commutative integer addition)
    into a fresh snapshot, so totals are independent of region execution
    order; the returned record is a snapshot, not a live view. *)
type counters = {
  mutable attempts : int;
  mutable failures : int;
  mutable timeouts : int;
  mutable stale_rejects : int;
  mutable cross_region_fetches : int;  (** subset of [attempts] *)
  mutable deliveries : int;
  mutable empty_probes : int;  (** attempts that found no visible replica *)
}

type t

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

(** [region_down t ~region ~now] — is the region's store unreachable at
    [now]? *)
val region_down : t -> region:int -> now:float -> bool

(** [partitioned t ~region ~now] — is the region's fetcher side inside its
    partition window at [now]? *)
val partitioned : t -> region:int -> now:float -> bool

(** [publish t rng ~now ~bucket pkg] replicates [pkg] into every region
    whose store is reachable at [now];
    with publish latency, each region's copy becomes fetchable after an
    independent exponential delay (no randomness is consumed otherwise). *)
val publish : t -> Js_util.Rng.t -> now:float -> bucket:int -> Server.package -> unit

type outcome =
  | Delivered of Server.package * float  (** package + total fetch delay *)
  | Unavailable of float  (** ladder exhausted; seconds wasted waiting *)
  | Not_found  (** no reachable region holds a visible replica *)

(** [fetch t rng ~now ~region ~bucket] — one consumer's package fetch at
    simulation time [now].  With [telemetry] (and an {!active} config):
    attempts bump [dist.fetch_attempts] (foreign-region ones also
    [dist.cross_region]), failures [dist.fetch_failures], timeouts
    [dist.timeouts], stale deliveries [dist.stale_rejects]; successful
    deliveries observe their latency in the [dist.fetch_seconds]
    histogram. *)
val fetch :
  ?telemetry:Js_telemetry.t ->
  t ->
  Js_util.Rng.t ->
  now:float ->
  region:int ->
  bucket:int ->
  outcome
