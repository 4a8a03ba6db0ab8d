(** The one package-delivery ladder, and the distribution network in front
    of {!Store}.

    The paper's packages travel through a real distributed-storage service:
    fetches fail transiently, take time, time out, and can return {e stale}
    profiles from a previous release.  {!ladder} models a fetch through it,
    polymorphic in the payload: bounded retries with exponential backoff
    and deterministic jitter ({!Js_util.Backoff}) against the home region,
    then one attempt per foreign region, then give up (the caller degrades
    to a no-Jump-Start boot).  {!fetch} runs it over a {!Store} with a {b
    staleness gate}: a delivered package is rejected — the reject feeds the
    consumer's [Validation_failed] retry machinery as stage
    [consumer.fetch] — when its {!Package.meta.repo_fingerprint} disagrees
    with the consumer's repo, when its age exceeds the TTL, or when the
    replica is stale.  [Cluster.Dist_net] runs it over the fleet's replicas.

    {b Neutrality}: the ladder runs only when something can fail, delay or
    redirect a fetch — a positive rate, timeout or latency, a disaster
    window, or a foreign region.  Otherwise a fetch is one
    selection draw plus the gate, touching no {!counters} and recording
    neither [dist.fetch_attempts] nor [dist.fetch_seconds].

    With [telemetry], attempts bump [dist.fetch_attempts] (plus
    [dist.cross_region] for foreign-region attempts), failures
    [dist.fetch_failures], timeouts [dist.timeouts], gate rejects
    [dist.stale_rejects]; a delivery observes its latency in the
    [dist.fetch_seconds] histogram.  {!fetch} adds the per-kind reject
    counter ([dist.fingerprint_mismatch] / [dist.ttl_expired] /
    [dist.stale_replica]) and advances the clock by the accumulated wait
    under a [dist.fetch_wait] span. *)

(** The fault record. *)
type network = {
  fetch_fail_rate : float;  (** probability one attempt fails outright *)
  fetch_timeout : float;  (** per-attempt timeout in seconds; 0 = none *)
  latency_mean : float;  (** mean fetch latency; 0 = instantaneous *)
  stale_rate : float;  (** probability a replica serves a stale package *)
}

(** All rates/latencies zero: a perfect, instantaneous network. *)
val default_network : network

(** Does this network model any fault or latency at all? *)
val network_active : network -> bool

(** [validate network backoff] requires rates in [\[0, 1\]], finite
    non-negative times and backoff fields, and [backoff.max_attempts >= 1].
    @raise Invalid_argument naming the first bad field. *)
val validate : network -> Js_util.Backoff.config -> unit

(** Ladder counters.  The invariant: [attempts = deliveries + failures +
    timeouts + stale_rejects + empty_probes]. *)
type counters = {
  mutable attempts : int;
  mutable failures : int;
  mutable timeouts : int;
  mutable stale_rejects : int;
  mutable cross_region_fetches : int;  (** subset of [attempts] *)
  mutable deliveries : int;
  mutable empty_probes : int;  (** attempts whose pick found nothing *)
}

val fresh_counters : unit -> counters

(** The caller's gate on a picked payload: deliver it, or count a stale
    reject and retry, or count one and stop. *)
type 'r verdict = [ `Accept | `Retry | `Reject of 'r ]

type ('p, 'r) delivery =
  | Accepted of 'p * int  (** the payload and the region that served it *)
  | Refused of 'p * 'r  (** the gate's [`Reject] *)
  | Gave_up of { failures : int; timeouts : int }  (** attempts exhausted *)
  | Absent  (** nothing was seen, failed or timed out *)

(** [ladder net backoff counters rng ~now ~home ~foreign ~reachable ~pick
    ~gate] — one fetch, and the seconds it waited.  Each attempt runs, in
    order: [reachable ~region ~at] (no draw; [None] means always
    reachable), the failure draw, the latency draw and timeout check,
    [pick ~region], the stale draw, [gate ~stale].  [at] is [now] plus the
    wait so far.  Up to [backoff.max_attempts] home attempts with a backoff
    wait between them (an empty probe ends them), then one attempt per
    [foreign] region. *)
val ladder :
  ?telemetry:Js_telemetry.t ->
  network ->
  Js_util.Backoff.config ->
  counters ->
  Js_util.Rng.t ->
  now:float ->
  home:int ->
  foreign:int list ->
  reachable:(region:int -> at:float -> bool) option ->
  pick:(region:int -> 'p option) ->
  gate:(stale:bool -> 'p -> 'r verdict) ->
  ('p, 'r) delivery * float

type t

(** [create store] wraps [store].  [repo] enables the fingerprint gate
    (packages hashed against a different build are rejected);
    [ttl_seconds > 0] enables the TTL gate; [regions] lists the fallback
    regions (a fetch skips its own home).  @raise Invalid_argument if
    {!validate} rejects [network] or [backoff]. *)
val create :
  ?network:network ->
  ?backoff:Js_util.Backoff.config ->
  ?ttl_seconds:float ->
  ?regions:int array ->
  ?repo:Hhbc.Repo.t ->
  Store.t ->
  t

(** Does the network model a fault, a latency or a fallback region? *)
val active : t -> bool

(** Ladder counters summed over every {!fetch} of [t]. *)
val counters : t -> counters

(** Why the staleness gate refused a delivered package.  Only
    [Fingerprint_mismatch] is salvageable: the payload is a well-formed
    package for a {e different build} of this application, which the
    stale-profile matcher can re-anchor; an expired or replica-served stale
    package is simply old data. *)
type reject_kind = Stale_replica | Fingerprint_mismatch | Ttl_expired

type fetch_result =
  | Delivered of { bytes : string; meta : Package.meta; region : int; delay : float }
      (** a usable package, after [delay] seconds of fetch latency/retries *)
  | Rejected of {
      kind : reject_kind;
      reason : string;
      bytes : string;  (** the delivered payload — kept for the salvage path *)
      meta : Package.meta;
      delay : float;
    }
      (** delivered but refused by the staleness gate — burns a consumer
          boot attempt (stage [consumer.fetch]) unless the consumer salvages
          a [Fingerprint_mismatch] via {!Package.of_bytes_stale} *)
  | Unavailable of { reason : string; delay : float }
      (** retries and cross-region fallback exhausted — the consumer
          degrades gracefully to a no-Jump-Start boot *)
  | No_package  (** no replica in any reachable region holds a package *)

(** [fetch t rng ~now ~region ~bucket] runs the {!ladder} with
    {!Store.pick_random} as the pick and the staleness gate.  [now] is the
    consumer's boot time on the simulated clock (drives the TTL gate). *)
val fetch :
  ?telemetry:Js_telemetry.t ->
  t ->
  Js_util.Rng.t ->
  now:float ->
  region:int ->
  bucket:int ->
  fetch_result
