(** Jump-Start consumer workflow (paper Fig. 3c and §VI-A).

    A consumer boots by deserializing a profile package, applying the
    steady-state optimizations it enables, and JITing all optimized code
    before serving.  The one full boot path, {!boot_dist}, implements the
    reliability machinery: random package selection behind the fingerprint
    gate, stale-profile salvage, health checking, bounded retries, and
    automatic no-Jump-Start fallback. *)

(** A batch of requests driven against an engine (the test/experiment layer
    decides what traffic means). *)
type traffic = Interp.Engine.t -> unit

(** A booted VM, ready to serve.  [package = None] means the VM is running
    without Jump-Start (collecting its own profile). *)
type vm = {
  repo : Hhbc.Repo.t;
  options : Options.t;
  package : Package.t option;
  counters : Jit_profile.Counters.t;  (** profile driving the compilation *)
  layouts : Mh_runtime.Class_layout.table;
  compiled : Jit.Compiler.compiled;
}

(** Compilation config implied by the options' optimization toggles. *)
val compile_config : Options.t -> Jit.Compiler.config

(** [serving_engine vm ?probes ()] — fresh heap + engine for this VM's
    layouts. *)
val serving_engine : vm -> ?probes:Interp.Probes.t -> unit -> Interp.Engine.t

(** [boot_with_package repo options package] — the happy path: reorder
    object layouts from the package's property counters, compile all
    optimized code with the package's Vasm weights and function order.
    [jit_bug] simulates a profile-triggered JIT compiler bug (§VI-A): when
    it returns [true] the boot fails like a crashed server. *)
val boot_with_package :
  Hhbc.Repo.t -> Options.t -> ?jit_bug:(Package.t -> bool) -> Package.t -> (vm, string) result

(** [boot_without_jumpstart repo options ~traffic] — the fallback: profile
    locally with [traffic], then compile in pre-Jump-Start mode (estimated
    weights, tier-1 call graph, no property reordering). *)
val boot_without_jumpstart : Hhbc.Repo.t -> Options.t -> traffic:traffic -> vm

type outcome =
  | Jump_started of vm
  | Fell_back of vm * string  (** reason for the fallback *)

(** [boot_dist repo options dist rng ~region ~bucket ...] — the §VI-A boot
    protocol, and the only consumer boot: up to [options.max_boot_attempts]
    times, pick a random package from the store behind the fingerprint
    gate ({!Dist_store.fetch}, one {!Store.pick_random}), decode, verify
    and coverage-check it, compile, and health-check with [health_traffic]
    (a crash or [Runtime_error] counts as unhealthy); on exhaustion or when
    no package exists, fall back to local profiling with
    [fallback_traffic].  When [options.enabled] is false, goes straight to
    the fallback path.

    - a {e delivered} package proceeds through decode → verify → coverage →
      compile → health-check;
    - a {e fingerprint-mismatched} package — profiled on a different build
      of this application — is {e salvaged} when
      [options.salvage_stale]: stage [consumer.salvage] decodes it
      leniently ({!Package.of_bytes_stale}), matches it onto the live repo,
      and, when {!Jit_profile.Stale_match.quality} clears
      [options.salvage_min_match], proceeds through the normal verify →
      coverage → compile → health-check chain (bumping
      [consumer.salvages] and the [match.funcs_matched] /
      [match.blocks_matched] / [match.counters_transferred] counters); a
      failed or below-threshold salvage burns the attempt as stage
      [consumer.salvage];
    - with salvage disabled, a fingerprint mismatch burns a boot attempt
      via the [Validation_failed] machinery as the stage [consumer.fetch]
      (counter [consumer.fetch_failures]) — a fresh attempt picks again and
      may draw a different package.

    With [telemetry], each attempt bumps [consumer.boot_attempts] and logs a
    [Boot_attempt] event; per-stage failures bump
    [consumer.<stage>_failures] and log [Validation_failed]; the decode,
    compile, and health-check stages run under spans whose durations come
    from deterministic work proxies (bytes decoded, translations emitted,
    interpreter steps) on the simulated clock; a fallback bumps
    [consumer.fallbacks] and logs a [Fallback] event with the reason. *)
val boot_dist :
  ?telemetry:Js_telemetry.t ->
  Hhbc.Repo.t ->
  Options.t ->
  Dist_store.t ->
  Js_util.Rng.t ->
  region:int ->
  bucket:int ->
  ?jit_bug:(Package.t -> bool) ->
  ?health_traffic:traffic ->
  fallback_traffic:traffic ->
  unit ->
  outcome
