(** Jump-Start seeder workflow (paper Fig. 3b and §VI).

    A seeder runs during the deployment's C2 phase: it serves traffic while
    profiling (tier 1), JITs the optimized code {e with instrumentation},
    serves more traffic to collect the Vasm-level profile, computes the
    function order, serializes everything into a package, self-validates by
    restarting in consumer mode, and publishes only if healthy. *)

type outcome = {
  package : Package.t;
  bytes : string;  (** the serialized, framed package *)
  profile_requests_steps : int;  (** interpreter work during tier-1 phase *)
}

(** [run repo options ~profile_traffic ~optimized_traffic ...] executes the
    whole seeder pipeline.

    - [profile_traffic]: traffic served while collecting tier-1 counters;
    - [optimized_traffic]: traffic served on the instrumented optimized
      code (Vasm profile collection);
    - [validation_traffic]: health-check load for self-validation (defaults
      to skipping the run-traffic part of validation);
    - [jit_bug]: fault injection passed through to validation (§VI-A.1).

    The package meta carries the repo fingerprint for the consumer's
    fingerprint gate, and [published_at = 0].

    Returns [Error reason] when the §VI-B coverage gate or §VI-A.1
    validation rejects the package — a real seeder would then restart in
    seeder mode and try again.

    With [telemetry], the profile / lower / instrument / serialize phases
    run under spans ([seeder.profile], [seeder.lower], [seeder.instrument],
    [seeder.serialize]) whose durations are deterministic work proxies on
    the simulated clock; gate verdicts bump [seeder.coverage_rejects] /
    [seeder.validation_rejects] (with [Validation_failed] events) or
    [seeder.packages_built]. *)
val run :
  ?telemetry:Js_telemetry.t ->
  Hhbc.Repo.t ->
  Options.t ->
  profile_traffic:Consumer.traffic ->
  optimized_traffic:Consumer.traffic ->
  ?validation_traffic:Consumer.traffic ->
  ?jit_bug:(Package.t -> bool) ->
  region:int ->
  bucket:int ->
  seeder_id:int ->
  unit ->
  (outcome, string) result

(** [run_and_publish ... store ...] — [run], then {!Store.publish} on
    success.  Returns the publish decision.  With [telemetry], a publish
    additionally bumps [seeder.published] and logs a [Seeder_published]
    event carrying the package size. *)
val run_and_publish :
  ?telemetry:Js_telemetry.t ->
  Hhbc.Repo.t ->
  Options.t ->
  Store.t ->
  profile_traffic:Consumer.traffic ->
  optimized_traffic:Consumer.traffic ->
  ?validation_traffic:Consumer.traffic ->
  ?jit_bug:(Package.t -> bool) ->
  region:int ->
  bucket:int ->
  seeder_id:int ->
  unit ->
  (outcome, string) result
