(** Deterministic code-churn generator (paper §VI-B): mutates the synthetic
    app's AST under a seeded RNG and recompiles it, producing the "next
    push" of the same application — drifted function ids, name tables,
    block structure and repo fingerprint, but still a valid program.

    Used to measure how profile reuse decays with code churn: a package
    seeded on the original build is salvaged against the churned build via
    {!Jit_profile.Stale_match} (exercised end-to-end by [bench churn]).

    Mutations per touched worker function: integer-literal edit (50%),
    rename with global call-site rewrite (20%), removal with call-site
    collapse (10%), clone under a fresh name (20%).  Endpoints retarget a
    controller call (hot-path shift), factories tweak class-mix thresholds,
    the base class rotates its property declaration order and the worker
    declaration segment rotates (pure id drift).  Endpoint/factory/class/
    method/property {e names} are never changed — the generator and the VM
    resolve those by name. *)

type config = {
  seed : int;  (** all mutation choices derive from this *)
  rate : float;  (** probability each worker function is touched; 0 = none *)
}

type stats = {
  decls_total : int;
  decls_touched : int;
  edits : int;
  renames : int;
  removals : int;
  clones : int;
  retargets : int;
  threshold_tweaks : int;
  props_rotated : bool;
  workers_rotated : bool;
  edit_distance : float;  (** touched declarations / total declarations *)
}

(** [churn_ast config program] — mutate the AST.  With [config.rate = 0.]
    the program is returned untouched (physically equal declarations), so a
    zero-churn build compiles byte-identically. *)
val churn_ast : config -> Minihack.Ast.program -> Minihack.Ast.program * stats

(** [generate config spec] = {!Codegen.build_ast} -> {!churn_ast} ->
    {!Codegen.app_of_program}: the churned build of [spec]'s app.
    @raise Failure if the mutated program fails repo validation (a churn
    bug, not an input condition). *)
val generate : config -> App_spec.t -> Codegen.app * stats
