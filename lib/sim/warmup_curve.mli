(** Warmup capacity curves for the discrete-event simulator, extracted from
    the macro server model.

    The DES models request service times, not JIT internals.  To make a
    server's instantaneous capacity follow its warmup state, a reference
    {!Cluster.Server} is run offline for each boot mode (no-Jump-Start, or
    consumer of a specific package) and its per-tick mean latency is
    recorded {e keyed by requests served} and normalized by the steady-state
    latency.  The DES then inflates each request's service time by
    [multiplier ~served], where [served] is the macro-equivalent request
    count — warmup progress is request-driven (discovery, profiling window),
    so requests-served is the natural domain, independent of the load the
    DES happens to offer. *)

type t

(** [build ?horizon cfg app role] runs a reference server for [horizon]
    simulated seconds (default 1800) and extracts its curve.  The server
    model ignores [bad]: the DES injects the crash itself. *)
val build : ?horizon:float -> Cluster.Server.config -> Workload.Macro_app.t -> Cluster.Server.js_role -> t

(** Boot span of the reference server (restart to first request). *)
val boot_seconds : t -> float

(** Steady-state capacity of the reference server (macro RPS); the DES uses
    [peak_rps / warm_rps] as the macro-equivalent scale per DES request. *)
val peak_rps : t -> float

(** Requests the reference server had served by the horizon — a "fully
    warm" served-count for pre-push fleet members. *)
val warm_served : t -> float

(** [multiplier t ~served] — service-time inflation at [served] macro
    requests; >= 1, clamped to the recorded range, 1 on a degenerate
    (never-served) curve. *)
val multiplier : t -> served:float -> float

(** Memoized curves over one (config, app): one no-Jump-Start slot plus one
    per package content.  Packages that differ only in [bad], which the
    server model ignores, share a curve. *)
type cache

val create_cache : ?horizon:float -> Cluster.Server.config -> Workload.Macro_app.t -> cache
val get : cache -> Cluster.Server.js_role -> t
