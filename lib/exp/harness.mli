(** Deterministic krun-style experiment harness: an N-seeds x M-configs
    matrix over the {!Js_sim} engines, per-server latency series binned,
    segmented ({!Changepoint}) and classified ({!Classify}), then aggregated
    into fleet-level distributions of time-to-steady-state and steady-state
    latency with bootstrap confidence intervals.

    Everything is reproducible from one integer seed: replicate seeds come
    from the {!Js_util.Rng} split-stream contract ({!derive_seeds}), every
    config in the matrix runs the {e same} replicate seeds (which is what
    makes {!Gate.compare_paired} comparisons paired), simulator runs are
    deterministic, and bootstrap CIs draw from a fixed-seed stream — so a
    whole-matrix rerun is byte-identical. *)

(** [derive_seeds ~seed ~n] derives [n] replicate seeds from a root seed,
    one {!Js_util.Rng.split} per replicate (child stream's first 62 bits).
    @raise Invalid_argument if [n < 1]. *)
val derive_seeds : seed:int -> n:int -> int array

(** [bin_series ~bin samples] reduces a time-ordered [(time, value)] stream
    to per-window means: window [k] covers [\[k*bin, (k+1)*bin)], empty
    windows are skipped, and each mean is stamped at its window center.
    @raise Invalid_argument if [bin <= 0]. *)
val bin_series : bin:float -> (float * float) array -> (float * float) array

(** [of_push cfg app] is a matrix runner for the single-region push
    simulator: runs it with [record_latency] forced on and returns the
    per-server (completion time, latency) streams. *)
val of_push :
  Js_sim.Region.config ->
  Workload.Macro_app.t ->
  seed:int ->
  (float * float) array array

(** One classified server run: cell [(config, seed)], server index within
    the fleet, and its classification. *)
type run_result = {
  config : string;
  seed : int;
  server : int;
  result : Classify.result;
}

(** [run ~configs ~seeds ()] executes the full matrix — every named config
    runner on every seed, one cell after another on the calling domain —
    and classifies every server series ([bin]-second windows, default 5;
    servers with no completions are dropped).  Results are ordered
    config-major, seed-minor, server-ascending.
    @raise Invalid_argument on an empty matrix. *)
val run :
  ?bin:float ->
  ?classify:Classify.config ->
  configs:(string * (seed:int -> (float * float) array array)) list ->
  seeds:int array ->
  unit ->
  run_result list

(** Fleet-level aggregate for one config: per-class counts (in
    {!Classify.all_classes} order over all seeds' servers), the
    time-to-steady-state distribution over runs that reached steady state
    (every class but {!Classify.No_steady_state}), and the steady-state
    latency distribution over all runs — each with its mean and a
    deterministic percentile-bootstrap CI ([(-1., (-1., -1.))] sentinels
    when the distribution is empty). *)
type summary = {
  s_config : string;
  runs : int;
  counts : (Classify.cls * int) list;
  tts : float array;
  tts_mean : float;
  tts_ci : float * float;
  steady : float array;
  steady_mean : float;
  steady_ci : float * float;
}

(** [summarize results] groups by config (first-appearance order).  Each
    CI is a 300-replicate bootstrap drawn from the fixed seed [0x5eed]. *)
val summarize : run_result list -> summary list
