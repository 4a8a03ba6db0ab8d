(** Instrumented translations as the interpreter's loop walks them.

    The interpreter is the semantic executor; tier-2 profiling reconstructs
    what the machine would have been doing: which vasm block of which
    translation each executed bytecode block corresponds to, honouring
    inlining.  [probes] resolves each function's own translation once, on
    the function's first entry, into flat tables ({!Interp.Probes.translation}):
    per inline node the vasm block of each bytecode block, and per call
    site the inlined child node and the slow-path block.  The loop
    ({!Interp.Engine}) then carries each activation's translation, inline
    node and last vasm block itself:

    - entering a callee that the enclosing translation inlined at that call
      site continues {e inside} the same translation (the inlined body's
      blocks), and its return is an arc back into the caller's block;
    - entering anything else transfers to the callee's own translation (or to
      untranslated execution);
    - a call whose receiver defeats the inline guard (actual callee differs
      from the speculated one), or whose callee misses the site's
      polymorphic inline cache, executes the slow-path block first — a
      tier-2 side exit invisible to tier-1 profiling.

    Consumers: {!Vasm_profile} (seeder instrumentation of optimized code,
    §V-A/§V-B), whose counts the loop bumps in place, and {!Trace_adapter}
    (machine-model replay for Fig. 5/6), which receives each event in
    order.  The reference replay these must match, a shadow stack fed by
    raw interpreter events, is [test/probe_ref.ml]. *)

type handler = {
  translation : Vasm.Vfunc.t -> Interp.Probes.sink;
      (** called once per translation, on its function's first entry *)
  xcalls : Interp.Probes.xcalls option;
      (** the counters of out-of-line (not inlined) calls; a call's caller
          is the calling translation's root, or the calling function when
          it runs untranslated, and request entries have none *)
  data : Interp.Probes.data option;  (** property reads and writes *)
}

(** [probes repo ~lookup handler] builds the tier-2 probes.  [lookup fid]
    returns the translation covering [fid], if any; it is consulted once
    per function, on its first entry, so the translations must not change
    while the probes run. *)
val probes :
  Hhbc.Repo.t -> lookup:(Hhbc.Instr.fid -> Vasm.Vfunc.t option) -> handler -> Interp.Probes.t
