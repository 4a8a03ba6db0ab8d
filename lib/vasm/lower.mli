(** Lowering: bytecode + inline tree -> Vasm translation body.

    The lowering models the size and CFG shape of HHVM's optimized code:

    - each bytecode basic block of each inline-tree node becomes one [Main]
      vasm block whose byte size is the sum of per-instruction lowered sizes;
    - bytecode blocks containing guarded dynamic operations (method dispatch,
      property access, container ops, casts) additionally get a [Slow]
      side-exit block reached when a guard fails;
    - at an inlined call site, the call instruction is replaced by a guard
      and the callee's entry block becomes a successor of the caller block;
      callee return blocks flow back to the caller block (the continuation
      is approximated by the containing block — see DESIGN.md);
    - non-inlined calls stay as call instructions inside the block.

    The per-instruction sizes are a calibrated model, not an encoder; what
    matters for the experiments is that relative block sizes and the CFG
    shape behave like optimized JIT output. *)

type mode =
  | Optimized
  | Instrumented  (** optimized + per-block counters (seeder mode, §V-A) *)

(** [dynamic_ops body ~start ~len] counts guarded dynamic operations in an
    instruction range (drives slow-path block sizes). *)
val dynamic_ops : Hhbc.Instr.t array -> start:int -> len:int -> int

(** [lower repo tree ~mode] lowers the whole inline tree into one
    translation body. *)
val lower : Hhbc.Repo.t -> Inline_tree.t -> mode:mode -> Vfunc.t

(** Per-block byte overhead added by [Instrumented] mode. *)
val instrumentation_bytes : int
