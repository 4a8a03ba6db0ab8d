(** Discrete-event simulation of a staged rolling deployment ("push") over a
    warm fleet of one or more regions — the tool behind the capacity-loss
    comparisons of paper Fig. 1 and the §VI guardrails, at request
    granularity.

    {b The model.}  An open-loop Poisson stream ({!Arrival}) is routed by a
    pluggable load balancer ({!Balancer}) over a fleet of queueing servers.
    Each server has [concurrency] worker slots, a bounded FIFO run queue
    with timeout-based shedding, and a per-request service time of
    [concurrency / warm_rps * demand * multiplier], where [demand] is
    lognormal with unit mean matched to the workload's per-request
    instruction variance and [multiplier] follows the server's warmup state
    through a {!Warmup_curve} keyed by requests served — so a freshly
    restarted server is slow exactly as long as the macro model says it
    should be, and recovers faster when it boots as a Jump-Start consumer.

    At [push_at] the push orchestrator runs the C2 seeding gates
    ({!Cluster.Fleet.run_seeders}: fault injection, validation and coverage
    checks; or {!Cluster.Fleet.forced_seeding} under
    [bad_per_bucket]), publishes the surviving packages through the
    distribution network ({!Cluster.Dist_net}), and rolls the fleet in
    batches of at most [drain_cap] concurrently drained servers.  Restarted
    consumers fetch through the network's retry/fallback ladder; bad
    packages crash their consumers after [crash_delay_seconds] and the
    §VI-A crash-spike guardrail aborts the remaining rollout when
    [abort_threshold] crashes land within [abort_window] seconds.

    {b Regions.}  A global fleet is [n_regions] regional fleets, each with
    its own servers, balancer, RNG streams and phase-offset diurnal
    {!Arrival} curve, sharing one {!Cluster.Dist_net} (region [r] fetches
    from replica region [r]; region 0 is the seeder region that runs C2
    seeding and publishes).  Pushes roll region by region, [push_stagger]
    seconds apart — the global push train.  {!run} is the single-region
    case.

    {b Execution modes.}  [`Epoch] is the product: each region has its own
    {!Engine}, and the regions advance in lockstep to barriers
    [k * epoch].  Between barriers they run on
    [max 1 (min n_regions (Domain.recommended_domain_count ()))] OCaml
    domains (regions dealt round-robin), which follows the CPUs the process
    may use: one under [taskset -c 0], one per region on a large host.
    [`Merged] runs every region on one shared engine — a plain single
    event queue, trivially correct, and the oracle the barrier loop is
    checked against.  Both modes, at any domain count, produce
    byte-identical {!global_digest}s for the same seed because:
    {ul
    {- every event belongs to exactly one region, and a region's events are
       dispatched in the same (time, insertion) order in every mode — the
       merged queue's per-region projection {e is} the regional queue;}
    {- cross-region interactions go through state that is either commutative
       (shared {!Cluster.Dist_net} counters, sharded per fetcher region),
       time-gated (replica visibility, disaster windows — pure functions of
       the simulated clock), or carried by spill events whose latency is
       validated [>= epoch], so they land strictly after the next barrier
       (barrier runs carry them in per-(src, dst) mailboxes drained at the
       barrier in index order — fork/join edges are the only
       synchronization);}
    {- seeding happens in region 0's push event, which every mode orders
       before every logically-later fetch (barrier runs execute the push's
       whole epoch on the calling domain at every domain count and pre-warm
       the shared warmup-curve cache at that barrier, after which shared
       state is read-only).}}

    In barrier runs each region also gets a private telemetry shard (own
    clock — no cross-domain clock writes) merged into the caller's registry
    after the run: counters and histograms fold commutatively, so they match
    a merged shared-registry run counter-for-counter.

    {b Arrival batching.}  When [batch] is on (the default), a same-tick
    burst of pre-drawn arrivals is coalesced: an arrival whose successor is
    inside the current run horizon and strictly earlier than every queued
    event dispatches it inline instead of round-tripping the heap
    ({!Engine.step_to} keeps clock/dispatch accounting identical), which
    preserves the (time, insertion) order — and therefore digests — exactly.
    [batch = false] keeps the heap round-trip as the oracle for the fast
    path.

    {b Spillover.}  When a region has no accepting servers — or its accepting
    fraction drops below [spill_threshold] — the marginal share of its
    arrivals is forwarded to an up foreign region (round-robin, rng-free),
    arriving [spill_latency] seconds later and counted in
    [spilled_out]/[spilled_in].

    {b Disasters.}  {!Region_loss} takes a whole region down mid-run (all
    servers drained, pending restarts cancelled, zero crashes — generation
    bumps invalidate in-flight events — and its load spills cross-region);
    {!Dist_partition} cuts a region's consumers off from the distribution
    network for a window; {!Seeder_outage} takes the seeder region's replica
    store down, forcing its consumers onto cross-region Jump-Start fetches.
    All are schedules fixed before the run — reachability is a pure function
    of time, part of the determinism argument above. *)

(** Per-region configuration; [fleet.n_servers] is {e per region}. *)
type config = {
  fleet : Cluster.Fleet.config;
      (** servers, buckets ([n_buckets >= 1]), seeding gates, boot-attempt
          ladder and the distribution network *)
  warm_rps : float;  (** steady-state capacity of one warm server *)
  concurrency : int;  (** worker slots per server *)
  queue_capacity : int;  (** run-queue bound; overflow is shed *)
  request_timeout : float;  (** queued longer than this is shed at dequeue *)
  arrival : Arrival.config;  (** offered load per region *)
  policy : Balancer.policy;
  jumpstart : bool;
      (** [false]: the push restarts every server without packages (no
          seeding, no publication) — the no-Jump-Start baseline *)
  push_at : float;  (** when the rolling push starts, seconds; finite *)
  drain_cap : int;  (** max servers concurrently drained/booting *)
  abort_window : float;  (** guardrail: crash-spike window, seconds *)
  abort_threshold : int;  (** crashes within the window that abort *)
  bad_package_rate : float;  (** seeder fault injection (§VI-A) *)
  thin_profile_rate : float;  (** drained-seeder injection (§VI-B) *)
  bad_per_bucket : int option;
      (** [Some n] replaces the random seeding gates with
          {!Cluster.Fleet.forced_seeding}: exactly [n] bad packages per
          bucket (the §VI-A.2 blast-radius experiment); [None] by default *)
  duration : float;  (** total simulated seconds; finite, past [push_at] *)
  curve_horizon : float;  (** reference-run length for warmup curves *)
  tick : float;  (** capacity/served sampling period; positive, finite *)
  record_latency : bool;
      (** record per-server (time, latency) samples into
          [stats.server_latency].  Off by default; turning it on draws no RNG
          and changes no digest — it only spends memory. *)
}

(** 24 servers x 50 rps at 70% utilization, warmup-aware routing, push at
    120 s, 900 s horizon. *)
val default_config : config

type disaster =
  | Region_loss of { region : int; at : float }
      (** the whole region goes dark at [at] *)
  | Dist_partition of { region : int; at : float; duration : float }
      (** the region's fetchers are cut off during [\[at, at+duration)] *)
  | Seeder_outage of { at : float }
      (** region 0's replica store is unreachable from [at] on *)

type global_config = {
  base : config;  (** per-region configuration *)
  n_regions : int;
  region_phase : float;  (** seconds of diurnal phase offset per region *)
  push_stagger : float;  (** seconds between consecutive regions' pushes *)
  spillover : bool;  (** enable cross-region spillover routing *)
  spill_latency : float;  (** cross-region forwarding latency; >= [epoch] *)
  spill_threshold : float;
      (** accepting fraction below which marginal arrivals spill, in (0,1] *)
  epoch : float;  (** barrier interval of the [`Epoch] mode, s *)
  disasters : disaster list;
  batch : bool;  (** coalesce same-burst arrivals (digest-neutral); on by default *)
}

(** 1 region, no spillover, 30 s epochs, 60 s spill latency, no disasters,
    batching on. *)
val default_global_config : global_config

(** Per-region results.  Seeding fields ([packages_*], [dist]) are
    populated on region 0 (the seeder region) and zero/[None] elsewhere;
    single-region runs have [spilled_out = spilled_in = 0] and
    [lost = false]. *)
type stats = {
  region : int;
  policy : Balancer.policy;
  jumpstart : bool;
  arrived : int;
  completed : int;
  shed_queue_full : int;
  shed_timeout : int;
  shed_no_server : int;
  shed_drain : int;  (** lost to server drains (queued + in-flight) *)
  crashes : int;
  jump_started : int;  (** first-attempt consumer boots *)
  fallbacks : int;  (** no-Jump-Start boots while Jump-Start was on *)
  spilled_out : int;  (** arrivals this region forwarded cross-region *)
  spilled_in : int;  (** spilled arrivals received from other regions *)
  bucket_jump_started : int array;
  bucket_fallbacks : int array;
  packages_published : int;
  packages_rejected : int;
  bad_packages_published : int;
  aborted : bool;  (** crash-spike guardrail fired *)
  lost : bool;  (** a {!Region_loss} fired for this region *)
  push_started : float;  (** -1 if the push never started *)
  push_done : float;  (** all batches dispatched and booted; -1 if never *)
  time_to_full_capacity : float;
      (** seconds from push start until every server accepts and estimated
          capacity is back to 95% of warm; -1 if never *)
  capacity_loss_integral : float;
      (** integral of max(0, warm - estimated capacity) over the push
          window, in requests (rps * seconds) — Fig. 1's area above the
          curve, un-normalized *)
  fleet_warm_rps : float;
  latency : Js_util.Stats.Quantile.t;  (** whole run, all servers merged *)
  latency_push : Js_util.Stats.Quantile.t;
      (** completions between push start and capacity recovery *)
  capacity_series : Js_util.Stats.Series.t;  (** estimated capacity per tick *)
  served_series : Js_util.Stats.Series.t;  (** completion rate per tick *)
  server_latency : Js_util.Stats.Series.t array;
      (** per-server (completion time, latency) sample streams, indexed by
          server; length [fleet.n_servers] when [config.record_latency] was
          set and [| |] otherwise.  Excluded from {!digest}. *)
  events_dispatched : int;
  dist : Cluster.Dist_net.counters option;  (** [None] if network inactive *)
}

type global_stats = {
  g_mode : string;  (** "epoch" or "merged"; excluded from {!global_digest} *)
  g_regions : stats array;
  g_latency : Js_util.Stats.Quantile.t;  (** all regions merged *)
  g_latency_push : Js_util.Stats.Quantile.t;
  g_epochs : int;  (** barriers executed (1 in merged mode) *)
  g_domains : int;
      (** domains the barrier loop ran on (1 in merged mode); excluded from
          {!global_digest} *)
  g_events : int;  (** events dispatched across all regions *)
  g_spilled : int;  (** total cross-region spills *)
  g_net : Cluster.Dist_net.counters;  (** the shared network's counters *)
}

(** [run_global ?telemetry ?mode gcfg app ~seed] — deterministic: same
    inputs produce identical {!global_digest}s under [`Epoch] (the
    default), on any number of CPUs, and [`Merged] (see above).  With
    [n_regions > 1] the dist-net config is widened to cover every region,
    which turns on cross-region fallback.  With [telemetry]: [sim.*] counters, boot
    spans per restart, push start/abort and region-loss marks; each sink's
    clock tracks simulation time.  @raise Invalid_argument on invalid
    configs: fewer than one bucket, non-positive capacities or caps, a
    request timeout that is not positive (infinity is allowed), a negative
    abort window, a seeding rate or validation catch rate outside
    [\[0, 1\]], a non-finite [tick], [push_at] or [duration], a duration
    not past [push_at], a [push_stagger] that is not finite and >= 0, a
    [spill_threshold] outside [(0, 1\]], or [spillover] across regions with
    a non-finite [spill_latency] or one below [epoch].  NaN fails every
    check. *)
val run_global :
  ?telemetry:Js_telemetry.t ->
  ?mode:[ `Epoch | `Merged ] ->
  global_config ->
  Workload.Macro_app.t ->
  seed:int ->
  global_stats

(** [validate_global gc] raises [Invalid_argument] on every config
    {!run_global} rejects, and runs nothing. *)
val validate_global : global_config -> unit

(** Single-region run: [run cfg app ~seed] is
    [run_global ~mode:`Merged { default_global_config with base = cfg }],
    returning region 0's stats. *)
val run : ?telemetry:Js_telemetry.t -> config -> Workload.Macro_app.t -> seed:int -> stats

(** Full-precision canonical rendering of every per-region stats field
    (quantiles at p50/p95/p99, series lengths and integrals) — equal digests
    mean the runs were indistinguishable. *)
val digest : stats -> string

(** Canonical rendering of a whole global run: every region's {!digest} plus
    merged quantiles, totals and the shared network counters.  Excludes
    [g_mode], [g_epochs] and [g_domains] so epoch and merged runs of the
    same seed are byte-identical. *)
val global_digest : global_stats -> string

val pp_stats : Format.formatter -> stats -> unit
val pp_global_stats : Format.formatter -> global_stats -> unit
