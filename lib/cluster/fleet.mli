(** Fleet configuration and the C2 seeding gates of a continuous-deployment
    push (paper §II-C, §VI).

    A fleet is one region's worth of web servers partitioned into semantic
    buckets.  In {b C2} a few servers per (region, bucket) run as Jump-Start
    seeders, each independently collecting, validating and publishing its
    own package (§VI-A.2 "multiple, randomized profiles").  Fault injection
    can make a seeder produce a {e bad} package (a profile that triggers a
    JIT bug on consumers) or a {e thin} one (drained data center, §VI-B);
    seeder-side validation catches bad packages with a configurable
    probability, and the coverage gate rejects thin ones.

    The C3 fleet restart — consumers fetching packages, crashing on bad
    ones, re-picking and falling back to no-Jump-Start after
    [max_boot_attempts] (§VI-A.3) — is simulated by {!Js_sim.Region}, which
    reads this config and runs these gates. *)

type config = {
  n_servers : int;
  n_buckets : int;
  seeders_per_bucket : int;
  server : Server.config;
  validation_catch_rate : float;
      (** probability seeder self-validation catches a bad package *)
  max_boot_attempts : int;
  fallback_enabled : bool;
  dist : Dist_net.config;
      (** the package-delivery network between seeders and consumers; the
          default (inactive) config is draw-identical to a direct pick.
          When a fetch ladder exhausts retries and cross-region fallback,
          the consumer boots without Jump-Start. *)
}

val default_config : config

(** The outcome of the C2 seeding phase: per-bucket published package lists
    (oldest-published first) plus gate accounting. *)
type seeding = {
  per_bucket : Server.package list array;
  published : int;
  rejected : int;  (** caught by validation or the coverage gate *)
  bad_published : int;
}

(** [run_seeders config app rng ~bad_package_rate ~thin_profile_rate] runs
    the C2 seeding phase: every seeder retries (up to 4 times) until it
    publishes a package that passes the coverage and validation gates,
    drawing its faults and gate outcomes from [rng]. *)
val run_seeders :
  config ->
  Workload.Macro_app.t ->
  Js_util.Rng.t ->
  bad_package_rate:float ->
  thin_profile_rate:float ->
  seeding

(** [forced_seeding config app ~bad_per_bucket] bypasses random fault
    injection and validation: each bucket gets exactly
    [min bad_per_bucket seeders_per_bucket] bad packages plus good ones up to
    [seeders_per_bucket] — the controlled setting for the §VI-A.2
    blast-radius experiment.  Draws no randomness. *)
val forced_seeding : config -> Workload.Macro_app.t -> bad_per_bucket:int -> seeding
