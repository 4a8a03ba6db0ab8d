(** Forward/backward dataflow over the per-function basic-block CFG.

    One generic worklist solver drives three concrete analyses, exposed
    together as a per-function {!summary}:

    - type-state inference: an abstract value ({!Absval.t}) per operand-stack
      slot and per local, joined at block entries, with branch refinement on
      [JmpZ]/[JmpNZ] of values whose provenance is known (a local load, or an
      [InstanceOf] test of a local);
    - constant propagation and folding with feasible-edge reachability.
      Constants fold through the interpreter's own operators
      ({!Hhbc.Ops}): an operator that raises does not fold, so a folded
      value is exactly what the interpreter computes;
    - backward liveness of locals over feasible edges (dead-store facts).

    Soundness contract: every fact over-approximates the interpreter.
    Profiles come from real executions, and every block a run executes is
    [reach] and every arc it takes is a {!feasible_edge}.  So:
    - the package gates P320/P321 never reject an honestly collected
      profile;
    - [Jit_profile.Stale_match] never drops a transferred count on a block
      or arc a real run can take;
    - the verifier's V105 and the A4xx lints (built on [undef_read],
      [dead_store] and [pushed]) are warnings, so an imprecise fact costs
      precision, never a rejection.

    Which summaries a profile gate may trust (verifier-clean body, converged
    analysis) is {!Verify.facts}. *)

module Absval : sig
  (** [Const] holds immutable scalars only (Null/Bool/Int/Float/Str);
      [Tag TNull] is normalized to [Const Null]. *)
  type t = Any | Tag of Hhbc.Value.tag | Const of Hhbc.Value.t

  (** Least upper bound: Const < Tag < Any. *)
  val join : t -> t -> t

  (** Constants compare syntactically: floats by bits, and no int/float
      cross-equality. *)
  val equal : t -> t -> bool

  val to_string : t -> string
end

(** Per-function analysis results.  All per-pc arrays are indexed by body
    offset; facts at unreachable pcs are the conservative defaults ([Any] /
    [false]). *)
type summary = {
  blocks : Hhbc.Func.block array;
  reach : bool array;  (** per block: reachable over feasible edges *)
  feasible_succs : int list array;
      (** per block: subset of [blocks.(b).succs] reachable along feasible
          edges (empty for unreachable blocks) *)
  pushed : Absval.t array;
      (** per pc: abstract value the instruction pushes ([Any] if none) *)
  undef_read : bool array;
      (** per pc: [LoadLoc] of a possibly-unassigned local (params count as
          assigned; other locals as engine-zeroed null but unassigned) *)
  dead_store : bool array;
      (** per pc: [StoreLoc] whose local is dead on every feasible path *)
  iterations : int;
  converged : bool;  (** [false] = bound hit, facts degraded to trivial *)
}

(** [feasible_edge s ~src ~dst] — the CFG edge src->dst survives
    feasible-edge pruning.  Edges not in the CFG at all are infeasible. *)
val feasible_edge : summary -> src:int -> dst:int -> bool

(** Iteration bound used by {!analyze} (exposed for the qcheck property that
    pins solver convergence under it). *)
val typestate_bound : n_blocks:int -> body_len:int -> n_locals:int -> int

(** [analyze repo f] runs all three analyses.  Total on arbitrary bodies
    (clamped stack ops, range-guarded ids); results are only as meaningful
    as the body is verifiable. *)
val analyze : Hhbc.Repo.t -> Hhbc.Func.t -> summary
