(** Macro model of one HHVM web server over its lifetime.

    Simulates, in one-second ticks, the full warmup pipeline of paper §II-B
    and Fig. 3 over a statistical application ({!Workload.Macro_app}):

    - {b no Jump-Start} (Fig. 3a): initialization with sequential warmup
      requests; request-driven discovery of functions (unit loading +
      interpretation); profiling translations while the profile window is
      open; at window close (point "A" of Fig. 1), optimized region
      compilation on background JIT threads into temporary buffers (A->B);
      relocation into the code cache (B->C); live translations for
      later-discovered code until the JIT ceases (D);
    - {b seeder} (Fig. 3b): as above, but the optimized code carries
      instrumentation; after a collection period the profile is serialized
      and the server exits, yielding a {!package};
    - {b consumer} (Fig. 3c): deserialize, JIT all package-covered functions
      in parallel on all cores, run warmup requests in parallel, then serve
      with optimized code active from the first request.

    Execution cost per request is the expectation over the function
    population of per-mode instruction costs ({!Jit.Tiers}), so a tick is
    O(transitions), not O(functions) — fleets of thousands of servers remain
    cheap to simulate. *)

type js_role =
  | No_jumpstart
  | Seeder
  | Consumer of package

(** What a seeder ships, at macro granularity. *)
and package = {
  covered : bool array;  (** per-function: has optimized profile data *)
  opt_bytes : int;  (** optimized code size *)
  compile_cycles : float;  (** total tier-2 compile work *)
  package_bytes : int;
  steady_speedup : float;  (** §V optimizations' effect, e.g. 1.054 *)
  quality : float;  (** <1 for thin profiles (drained seeder, §VI-B) *)
  bad : bool;
      (** an escaped JIT bug (§VI-A): {!Js_sim.Region} crashes its consumers;
          this model's warmup ignores it *)
}

type config = {
  cores : int;
  clock_hz : float;
  offered_rps : float;  (** hard cap on load directed at this server *)
  utilization_target : float;
      (** load balancers keep servers at this CPU share, so a server's RPS
          tracks its current capacity during warmup (paper Fig. 2) *)
  jit_threads : int;  (** background optimized-compile threads *)
  profile_request_target : int;  (** requests before the window closes *)
  init_seconds_sequential : float;  (** no-Jump-Start warmup requests *)
  init_seconds_parallel : float;  (** Jump-Start warmup requests *)
  deserialize_bytes_per_sec : float;
  relocation_bytes_per_sec : float;
  unit_load_cycles_per_byte : float;
  seeder_collect_seconds : float;  (** instrumented-run duration *)
  crash_delay_seconds : float;
      (** serving time until {!Js_sim.Region} crashes a bad package's consumer *)
  code_capacity_bytes : int;  (** JITing ceases beyond this (point "D") *)
  cold_penalty : float;
      (** extra per-request cost factor while data caches / backend
          connections are still cold, independent of the JIT *)
  cold_decay_seconds : float;  (** decay time constant of [cold_penalty] *)
  traffic_ramp_seconds : float;
      (** load-balancer slow start: seconds over which routed traffic ramps
          back to full share after a restart *)
}

val default_config : config

type t

(** [create ?discovery_seed config app role] — a freshly restarted server at
    time 0.  [extra_boot_seconds] (default 0) is added to the boot span for
    time spent outside this model, e.g. the distribution network's package
    fetch ladder. *)
val create :
  ?discovery_seed:int ->
  ?extra_boot_seconds:float ->
  config ->
  Workload.Macro_app.t ->
  js_role ->
  t

(** [step t ~dt] advances the simulation. *)
val step : t -> dt:float -> unit

(** [run t ~until ~dt] steps until simulated [until] seconds. *)
val run : t -> until:float -> dt:float -> unit

val time : t -> float

(** Time from restart until the server starts serving (the boot span). *)
val boot_seconds : t -> float

(** Requests served in total. *)
val requests_served : t -> float

(** Is the server accepting requests yet? *)
val serving : t -> bool

(** Current throughput (requests per second) and mean request latency in
    seconds, as of the last tick. *)
val current_rps : t -> float

val current_latency : t -> float

(** Total JITed code bytes currently emitted (Fig. 1's y-axis). *)
val code_bytes : t -> int

(** The server's steady-state capacity in RPS (all hot code optimized, the
    rest live), used to normalize throughput curves. *)
val peak_rps : t -> float

(** Time series sampled every tick: (time, rps), (time, latency seconds),
    (time, code bytes). *)
val rps_series : t -> Js_util.Stats.Series.t

val latency_series : t -> Js_util.Stats.Series.t
val code_series : t -> Js_util.Stats.Series.t

(** For a seeder that has finished collecting: its package. *)
val seeder_package : t -> package option

(** [make_package ...] — build a package directly (tests, fault
    injection). *)
val make_package :
  config ->
  Workload.Macro_app.t ->
  ?quality:float ->
  ?bad:bool ->
  ?steady_speedup:float ->
  coverage_target:int ->
  unit ->
  package
