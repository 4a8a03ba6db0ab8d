(** Forward dataflow over the per-function basic-block CFG.

    One worklist solver drives two analyses, whose product is a
    per-function {!summary}:

    - type-state inference: an abstract value per operand-stack slot and per
      local, joined at block entries, with branch refinement on
      [JmpZ]/[JmpNZ] of values whose provenance is known (a local load, or
      an [InstanceOf] test of a local);
    - constant propagation and folding with feasible-edge reachability.
      Constants fold through the interpreter's own operators
      ({!Hhbc.Ops}): an operator that raises does not fold, so a folded
      value is exactly what the interpreter computes.

    Soundness contract: every fact over-approximates the interpreter.
    Profiles come from real executions, and every block a run executes is
    [reach] and every arc it takes is a {!feasible_edge}.  So:
    - the package gates P320/P321 never reject an honestly collected
      profile;
    - [Jit_profile.Stale_match] never drops a transferred count on a block
      or arc a real run can take.

    Which summaries a profile gate may trust (verifier-clean body, converged
    analysis) is {!Verify.facts}. *)

(** Per-function analysis results. *)
type summary = {
  blocks : Hhbc.Func.block array;
  reach : bool array;  (** per block: reachable over feasible edges *)
  feasible_succs : int list array;
      (** per block: subset of [blocks.(b).succs] reachable along feasible
          edges (empty for unreachable blocks) *)
  iterations : int;
  converged : bool;
      (** [false] = bound hit, facts degraded to trivial: every block
          reachable, every CFG edge feasible *)
}

(** [feasible_edge s ~src ~dst] — the CFG edge src->dst survives
    feasible-edge pruning.  Edges not in the CFG at all are infeasible. *)
val feasible_edge : summary -> src:int -> dst:int -> bool

(** Iteration bound used by {!analyze} (exposed for the qcheck property that
    pins solver convergence under it). *)
val typestate_bound : n_blocks:int -> body_len:int -> n_locals:int -> int

(** [analyze repo f] runs both analyses.  Total on arbitrary bodies
    (clamped stack ops, range-guarded ids); results are only as meaningful
    as the body is verifiable. *)
val analyze : Hhbc.Repo.t -> Hhbc.Func.t -> summary

(** [memoize compute] is [compute], run at most once per function of a
    repo (per repo by physical identity, for the most recent few repos; a
    body that is not its repo's own function is computed every time).
    {!analyze} and {!Verify.first_error} are memoized this way. *)
val memoize : (Hhbc.Repo.t -> Hhbc.Func.t -> 'a) -> Hhbc.Repo.t -> Hhbc.Func.t -> 'a
