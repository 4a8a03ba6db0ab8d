(** FuncChecker-style static bytecode verifier.

    Abstractly interprets every function body over its basic blocks before
    anything downstream (interpreter fast path, JIT lowering, profile
    application) trusts its shape, mirroring HHVM's FuncChecker: code that
    reaches execution has statically known stack discipline, in-bounds jump
    targets and resolvable repo links.

    Checks and their stable codes (see {!Diag} for the code contract):

    - {b V101} jump target out of range (error)
    - {b V102} operand-stack underflow (error)
    - {b V103} must-equal stack-depth mismatch at a control-flow join (error)
    - {b V104} execution can fall off the end of the body (error)
    - {b V106} local index out of range (error)
    - {b V107} empty body (error)
    - {b V108} [n_params] exceeds [n_locals] (error)
    - {b V109} unreachable basic block (warning — the compiler's implicit
      [return null] epilogue is legitimately dead after explicit returns)
    - {b V110} stack depth at [Ret] differs from 1 (warning)
    - {b V201} [Call] of an unknown function id (error), {b V208} with the
      wrong arity (error)
    - {b V202} unknown class id in [New]/[InstanceOf] (error)
    - {b V203} unknown string id (error)
    - {b V204} unknown name id in [CallMethod]/[GetProp]/[SetProp] (error)
    - {b V205} unknown static-array id (error)
    - {b V206} [New] with arguments on a class with no resolvable
      constructor (error), {b V207} constructor arity mismatch (error)
    - {b V209} class-table link broken (parent/method/prop/unit id) (error)
    - {b V210} function-table link broken (unit/class id) (error)
    - {b P312} inline-tree node references an invalid function or has
      inconsistent parent/child links (error) *)

(** Verify a single function body against [repo]'s tables.  Returns sorted
    diagnostics; an empty list (or warnings only, see {!Diag.ok}) means the
    body is safe to translate and execute.  The checks are structural: no
    {!Dataflow} solve runs here, so the engine's translation gate stays
    cheap. *)
val check_func : Hhbc.Repo.t -> Hhbc.Func.t -> Diag.t list

(** [first_error repo f] is the first error {!check_func} reports for [f]
    ([None]: verifier-clean).  Memoized per repo, so every caller runs
    [check_func] at most once per function of a repo. *)
val first_error : Hhbc.Repo.t -> Hhbc.Func.t -> Diag.t option

(** [facts repo f] is the dataflow summary a profile gate may trust: [Some]
    only when [f] has no verifier errors and its analysis converged.  The
    P320/P321 package gates and stale-profile transfer consult nothing
    else, so neither rejects nor drops an honestly collected count.  This is
    the only place the verifier asks {!Dataflow.analyze} for a summary. *)
val facts : Hhbc.Repo.t -> Hhbc.Func.t -> Dataflow.summary option

(** Verify class/function table links plus every function body. *)
val check_repo : Hhbc.Repo.t -> Diag.t list

(** Validate one translation's inline tree: every node names a real
    function, the root matches the translation, and parent/child links are
    mutually consistent with real call-site offsets (code P312). *)
val check_inline_tree : Hhbc.Repo.t -> Vasm.Vfunc.t -> Diag.t list
