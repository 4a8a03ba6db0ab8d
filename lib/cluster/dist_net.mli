(** Simulated package-delivery network for the fleet simulation.

    Per-(region, bucket) replica sets of {!Server.package}s between C2
    seeders and C3 consumers, with disaster windows.  A fetch runs the one
    delivery ladder, {!Jumpstart.Dist_store.ladder}, supplying the fleet's
    pick (a uniform pick among the replicas), reachability (the disaster
    windows), a gate that retries on a stale replica, and one counter shard
    per home region.  An exhausted ladder is {!Unavailable}: the fleet
    degrades that server to a no-Jump-Start boot.

    {b RNG neutrality}: with the {!default_config} (all rates and latencies
    zero, one region) and no disaster window, a fetch consumes exactly one
    draw per successful pick and emits no [dist.*] telemetry. *)

type config = {
  regions : int;
      (** replica regions; region 0 is the fleet's home.  With more than one,
          a fetch falls back to every foreign region in turn. *)
  network : Jumpstart.Dist_store.network;  (** the fault record *)
  backoff : Js_util.Backoff.config;  (** retry schedule per boot fetch *)
}

val default_config : config

(** Does this config change behaviour at all vs. a direct store pick? *)
val active : config -> bool

(** Fetch-ladder counters (updated only when the ladder runs).

    Internally the store keeps one shard per fetcher {e home} region and
    [fetch ~region:home] touches only that shard — the single-writer
    discipline the parallel simulator relies on when regions run on separate
    domains.  {!counters} folds the shards (commutative integer addition)
    into a fresh snapshot, so totals are independent of region execution
    order; the returned record is a snapshot, not a live view. *)
type counters = Jumpstart.Dist_store.counters = {
  mutable attempts : int;
  mutable failures : int;
  mutable timeouts : int;
  mutable stale_rejects : int;
  mutable cross_region_fetches : int;  (** subset of [attempts] *)
  mutable deliveries : int;
  mutable empty_probes : int;  (** attempts that found no replica *)
}

type t

(** @raise Invalid_argument when [regions < 1] or
    {!Jumpstart.Dist_store.validate} rejects the fault record. *)
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
  | Not_found  (** no reachable region holds a replica *)

(** [fetch t rng ~now ~region ~bucket] — one consumer's package fetch at
    simulation time [now], bumping the [region] shard of the counters.
    With [telemetry], the ladder's [dist.*] counters and
    [dist.fetch_seconds] histogram (see {!Jumpstart.Dist_store}). *)
val fetch :
  ?telemetry:Js_telemetry.t ->
  t ->
  Js_util.Rng.t ->
  now:float ->
  region:int ->
  bucket:int ->
  outcome
