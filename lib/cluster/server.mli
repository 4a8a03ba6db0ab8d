(** Macro model of one HHVM web server over its lifetime.

    Simulates, in one-second ticks, the warmup pipeline of paper §II-B and
    Fig. 3 over a statistical application ({!Workload.Macro_app}):

    - {b no Jump-Start} (Fig. 3a): initialization with sequential warmup
      requests; request-driven discovery of functions (unit loading +
      interpretation); profiling translations while the profile window is
      open; at window close (point "A" of Fig. 1), optimized region
      compilation on background JIT threads into temporary buffers (A->B);
      relocation into the code cache (B->C); live translations for
      later-discovered code until the JIT ceases (D);
    - {b consumer} (Fig. 3c): deserialize, JIT all package-covered functions
      in parallel on all cores, run warmup requests in parallel, then serve
      with optimized code active from the first request.

    A seeder (Fig. 3b) is a no-Jump-Start server that collects for a while
    once its optimized code is live; the fleet builds its packages directly
    ({!make_package}).

    Execution cost per request is the expectation over the function
    population of per-mode instruction costs ({!Jit.Tiers}), so a tick is
    O(transitions), not O(functions) — fleets of thousands of servers remain
    cheap to simulate.  The machine (16 cores at {!Jit.Tiers.clock_hz}, 6
    JIT threads, an 80% utilization target, at most 10k offered rps, a
    560 MB code cache, a 30% cold-cache penalty) is fixed; {!config} holds
    what callers vary. *)

type js_role =
  | No_jumpstart
  | Consumer of package

(** What a seeder ships, at macro granularity. *)
and package = {
  covered : bool array;  (** per-function: has optimized profile data *)
  opt_bytes : int;  (** optimized code size *)
  compile_cycles : float;  (** total tier-2 compile work *)
  package_bytes : int;
  steady_speedup : float;  (** §V optimizations' effect: {!steady_speedup} *)
  quality : float;  (** <1 for thin profiles (drained seeder, §VI-B) *)
  bad : bool;
      (** an escaped JIT bug (§VI-A): {!Js_sim.Region} crashes its consumers;
          this model's warmup ignores it *)
}

type config = {
  profile_request_target : int;  (** requests before the window closes *)
  init_seconds_sequential : float;  (** no-Jump-Start warmup requests *)
  init_seconds_parallel : float;  (** Jump-Start warmup requests *)
  crash_delay_seconds : float;
      (** serving time until {!Js_sim.Region} crashes a bad package's consumer *)
  cold_decay_seconds : float;
      (** decay time constant of the cold-cache penalty: extra per-request
          cost while data caches and backend connections are still cold,
          independent of the JIT *)
  traffic_ramp_seconds : float;
      (** load-balancer slow start: seconds over which routed traffic ramps
          back to full share after a restart *)
}

val default_config : config

(** The §V optimizations' steady-state gain a package carries (1.054, the
    paper's +5.4%). *)
val steady_speedup : float

type t

(** [create ?discovery_seed config app role] — a freshly restarted server at
    time 0. *)
val create : ?discovery_seed:int -> config -> Workload.Macro_app.t -> js_role -> t

(** [step t ~dt] advances the simulation. *)
val step : t -> dt:float -> unit

(** [run t ~until ~dt] steps until simulated [until] seconds. *)
val run : t -> until:float -> dt:float -> unit

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

(** [make_package config app ?quality ?bad ()] — a seeder's package: the
    functions likely touched within [config.profile_request_target]
    requests (scaled by [quality], default 1; a thin profile covers less),
    carrying {!steady_speedup}.  [bad] (default false) marks an escaped JIT
    bug. *)
val make_package :
  config -> Workload.Macro_app.t -> ?quality:float -> ?bad:bool -> unit -> package
