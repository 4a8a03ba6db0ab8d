(** Steady-state experiments (paper §VII-B, Figs. 5 and 6).

    Pipeline: generate the synthetic app; run a Jump-Start seeder on it
    (tier-1 profile + instrumented optimized run) to obtain a real package;
    then boot one consumer VM per variant — Jump-Start configurations differ
    only in their §V optimization toggles, plus a no-Jump-Start baseline
    that profiles locally and compiles with estimated weights and the tier-1
    call graph — and replay the {e same} request sequence through the
    machine model (caches, TLBs, branch predictor) for each.

    Throughput is inversely proportional to measured cycles per request, so
    speedups and the seven micro-architectural metrics of Fig. 5 come from
    the same replay. *)

type variant = {
  name : string;
  options : Jumpstart.Options.t;
  use_jumpstart : bool;  (** false: the local-profile baseline *)
}

(** The Fig. 5 pair: everything-on vs no Jump-Start. *)
val fig5_variants : variant list

(** The Fig. 6 set: JS-without-opts baseline, no-JS, and each §V
    optimization enabled individually. *)
val fig6_variants : variant list

type measurement = {
  m_name : string;
  snapshot : Machine.Hierarchy.snapshot;
  cycles_per_request : float;
  interp_steps : int;  (** semantic work, identical across variants *)
}

(** [speedup ~baseline m] — throughput gain of [m] over [baseline]
    (1.054 = +5.4%). *)
val speedup : baseline:measurement -> measurement -> float

(** [miss_reduction ~baseline ~metric m] — relative reduction of a miss
    rate, e.g. 0.068 = 6.8% fewer branch misses. *)
type metric = Branch | L1I | ITLB | L1D | DTLB | LLC

val metric_name : metric -> string
val miss_rate_of : measurement -> metric -> float
val miss_reduction : baseline:measurement -> metric:metric -> measurement -> float

type config = {
  spec : Workload.App_spec.t;
  seed : int;
  profile_requests : int;  (** tier-1 phase length *)
  optimized_requests : int;  (** instrumented phase length *)
  warm_requests : int;  (** cache warmup before measuring *)
  measure_requests : int;
}

val default_config : config

(** [run config variants] executes the whole experiment; measurements come
    back in the variants' order.  Request sequences are seeded from
    [config.seed]: [+1] tier-1 profile, [+2] instrumented run, [+3] cache
    warmup, [+4] measurement. *)
val run : config -> variant list -> measurement list

(** [drive app mix ~seed ~n engine] invokes [n] requests sampled from [mix]
    by a generator seeded with [seed]. *)
val drive :
  Workload.Codegen.app -> Workload.Request.mix -> seed:int -> n:int -> Interp.Engine.t -> unit

(** [replay config app mix compiled engine_of] replays requests on
    [engine_of probes], whose probes feed [compiled]'s code-cache trace into
    a fresh {!Machine.Hierarchy}: [warm_requests] to warm the caches, then
    [measure_requests] measured.  Returns the measured snapshot and the
    interpreter steps the measured requests took. *)
val replay :
  config ->
  Workload.Codegen.app ->
  Workload.Request.mix ->
  Jit.Compiler.compiled ->
  (Interp.Probes.t -> Interp.Engine.t) ->
  Machine.Hierarchy.snapshot * int
