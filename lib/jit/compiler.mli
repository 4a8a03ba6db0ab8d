(** The tier-2 (region) compilation pipeline.

    Given tier-1 counters — and optionally the measured Vasm profile a
    Jump-Start seeder collected — this module plans inlining, lowers every
    hot function, lays out basic blocks (Ext-TSP with hot/cold splitting, or
    ablation baselines), sorts functions (C3 on the accurate tier-2 call
    graph, or on the inaccurate tier-1 graph) and places everything in a
    code cache.

    The three optimization toggles correspond one-to-one to the bars of
    paper Fig. 6 (property reordering lives in {!Mh_runtime.Class_layout}
    and is toggled by the VM layer, not here). *)

type bb_layout = Exttsp | Source_order | Pettis_hansen

type func_order =
  | C3_tier2  (** C3 on the measured translation-level call graph (§V-B) *)
  | C3_tier1  (** C3 on the tier-1 call graph (pre-Jump-Start behaviour) *)

type config = {
  inline_params : Inliner.params;
  hot_threshold : float;  (** hot/cold split threshold (fraction of max) *)
  bb_layout : bb_layout;
  use_measured_bb_weights : bool;  (** §V-A toggle *)
  func_order : func_order;
  min_entries : int;  (** functions with fewer profiled entries stay live *)
  mode : Vasm.Lower.mode;
}

(** Production-like defaults with every Jump-Start optimization on. *)
val default_config : config

(** Pre-Jump-Start defaults: estimated weights and the tier-1 call graph. *)
val no_jumpstart_config : config

type compiled = {
  cache : Code_cache.t;
  vfuncs : (Hhbc.Instr.fid, Vasm.Vfunc.t) Hashtbl.t;
  order : Hhbc.Instr.fid array;  (** placement order actually used *)
  n_translations : int;
  n_skipped : int;  (** did not fit in the code cache *)
}

(** [select repo counters ~min_entries] — functions to optimize, hottest
    first. *)
val select : Hhbc.Repo.t -> Jit_profile.Counters.t -> min_entries:int -> Hhbc.Instr.fid list

(** [lower_all repo counters config] — plan + lower every selected function
    (no layout yet).  This is the state in which a seeder instruments the
    optimized code. *)
val lower_all :
  Hhbc.Repo.t -> Jit_profile.Counters.t -> config -> (Hhbc.Instr.fid * Vasm.Vfunc.t) list

(** [function_order counters config ~measured vfuncs] — the placement order
    the configured strategy produces (exposed so seeders can ship it as the
    package's precomputed intermediate result). *)
val function_order :
  Jit_profile.Counters.t ->
  config ->
  measured:Vasm_profile.t option ->
  (Hhbc.Instr.fid * Vasm.Vfunc.t) list ->
  Hhbc.Instr.fid array

(** [finish repo counters config ~measured vfuncs] — lay out, sort and place
    pre-lowered translations.  [measured = None] forces estimated weights
    and the tier-1 call graph regardless of the config toggles.
    [?order] overrides function sorting with a precomputed placement order
    (the "intermediate JIT result" a Jump-Start package ships, paper §IV-B
    category 4); fids absent from [order] are appended in hotness order. *)
val finish :
  Hhbc.Repo.t ->
  Jit_profile.Counters.t ->
  config ->
  measured:Vasm_profile.t option ->
  ?order:Hhbc.Instr.fid array ->
  (Hhbc.Instr.fid * Vasm.Vfunc.t) list ->
  compiled

(** [compile repo counters config ~measured] = [lower_all] + [finish]. *)
val compile :
  Hhbc.Repo.t -> Jit_profile.Counters.t -> config -> measured:Vasm_profile.t option -> compiled

(** Translation lookup for {!Context.probes}. *)
val lookup : compiled -> Hhbc.Instr.fid -> Vasm.Vfunc.t option
