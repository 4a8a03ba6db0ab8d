(** Dataflow-backed lints, reported through {!Diag} with stable codes:

    - {b A401} dead store: a [StoreLoc] whose local is read on no feasible
      path (warning)
    - {b A402} always-null read: a [LoadLoc] of a must-assigned local that
      is statically null (warning)
    - {b A403} constant-foldable expression: a [BinOp]/[UnOp]/[Cast] whose
      result folds to a constant (warning)
    - {b A404} unreachable by dataflow: a block the CFG reaches but
      feasible-edge pruning proves dead (warning; CFG-unreachable blocks
      are {!Verify}'s V109) *)

(** [check_func repo f] — {!Verify.check_func} plus, when the body has no
    verifier errors, the A4xx lints; sorted. *)
val check_func : Hhbc.Repo.t -> Hhbc.Func.t -> Diag.t list

(** [check repo] — {!check_func} over every function, sorted. *)
val check : Hhbc.Repo.t -> Diag.t list
