(** Statistical application model for fleet-scale simulation.

    The real generated app ({!Codegen}) is executed instruction-by-
    instruction and is the substrate for the steady-state experiments; it is
    far too slow for simulating 2000-server fleets over simulated hours.
    This module models the application at the granularity the warmup figures
    (paper Figs. 1, 2, 4) actually depend on: a large population of
    compilation units ("functions") with

    - a per-request touch probability [p_touch] (drives the
      coupon-collector discovery dynamics: hot code found in seconds, the
      long tail over ~25 minutes),
    - a bytecode size (drives JIT compile time and code-cache growth),
    - an executed-instruction weight (drives per-request latency under each
      execution mode).

    The population is two-regime — a hot "core" plus a very long tail —
    matching the paper's description of a flat profile where no function
    reaches 1% of cycles yet ~500 MB of code is eventually JITed. *)

type params = {
  seed : int;
  n_funcs : int;
  core_funcs : int;  (** the hot regime *)
  mean_size : int;  (** mean bytecode bytes per function *)
  core_p_max : float;  (** touch probability of the hottest function *)
  core_exponent : float;  (** power-law decay within the core *)
  tail_p_max : float;  (** tail probabilities: log-uniform in [min, max] *)
  tail_p_min : float;
  weight_exponent : float;  (** decay of per-touch instruction weight *)
  instrs_per_request : float;  (** calibrates total work: E[instrs/request] *)
}

(** Calibrated to the paper's regime: ~500 MB total JITed code, optimized
    code finished ~10 min, JITing ceasing ~25 min at typical load.  See
    DESIGN.md §4. *)
val default_params : params

type mfunc = {
  size : int;
  p_touch : float;
  weight : float;  (** bytecode instructions executed per touching request *)
}

type t = { params : params; funcs : mfunc array }

val generate : params -> t

(** Total bytecode bytes. *)
val total_size : t -> int

(** [sample_discovery t rng] — for each function, the (1-based) request
    index at which this server first touches it (geometric sampling).  Each
    server draws its own. *)
val sample_discovery : t -> Js_util.Rng.t -> int array

(** [coverage t ~discovered] — fraction of per-request instruction weight
    covered by a predicate over function indices. *)
val coverage : t -> discovered:(int -> bool) -> float

(** [request_weight_moments t] — (mean, stddev) of the per-request executed
    instruction count over the function population (independent Bernoulli
    touches).  The discrete-event simulator draws per-request service
    demand from a lognormal matched to these moments. *)
val request_weight_moments : t -> float * float
