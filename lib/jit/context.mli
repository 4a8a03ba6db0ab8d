(** Shadow-stack replay: maps interpreter execution events onto JIT
    translations.

    The interpreter is the semantic executor; this module reconstructs what
    the machine would have been doing — which vasm block of which translation
    each bytecode block corresponds to, honouring inlining:

    - entering a callee that the enclosing translation inlined at that call
      site continues {e inside} the same translation (the inlined body's
      blocks);
    - entering anything else transfers to the callee's own translation (or to
      untranslated execution);
    - a method call whose receiver defeats the inline guard (actual callee
      differs from the speculated one) executes the slow-path block first —
      a tier-2 side exit invisible to tier-1 profiling.

    Everything an event needs is resolved once: per function its
    translation, block map and inline-cache slots; per translation the
    handler's callbacks and inlined-child table.  Frames live in a reused
    array, so replaying an event allocates nothing.

    Consumers: {!Vasm_profile} (seeder instrumentation of optimized code,
    §V-A/§V-B) and {!Trace_adapter} (machine-model replay for Fig. 5/6). *)

(** Callbacks bound to one translation. *)
type translation = {
  on_vblock : int -> unit;  (** executed vasm block *)
  on_varc : src:int -> dst:int -> unit;  (** control arc between two of its vasm blocks *)
}

type handler = {
  translation : Vasm.Vfunc.t -> translation;
      (** called once per function with a translation, on its first entry *)
  on_xcall : caller:Hhbc.Instr.fid -> callee:Hhbc.Instr.fid -> unit;
      (** out-of-line (not inlined) call; [caller] is the calling
          translation's root, or the calling function when it runs
          untranslated, or [-1] for request entry *)
  on_prop : addr:int -> write:bool -> unit;  (** data access *)
}

(** [probes repo ~lookup handler] builds interpreter probes implementing the
    mapping.  [lookup fid] returns the translation covering [fid], if any;
    it is consulted once per function, on its first entry, so the
    translations must not change while the probes run. *)
val probes :
  Hhbc.Repo.t -> lookup:(Hhbc.Instr.fid -> Vasm.Vfunc.t option) -> handler -> Interp.Probes.t
