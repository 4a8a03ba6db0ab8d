(** Turns replayed translation execution into a machine-level access trace.

    Receives, in execution order, the vasm blocks and arcs the interpreter's
    loop walks ({!Context}) and, using the {!Code_cache} placement, emits
    instruction fetches, dynamic branches and data accesses into a [sink]
    (implemented by the experiment layer over {!Machine.Hierarchy}).  This
    is the bridge that lets the cache/TLB/branch models observe the effect
    of basic-block layout, hot/cold splitting, function order and object
    layout — i.e. regenerate paper Fig. 5.

    Modelling notes:
    - a conditional branch is charged at the end of every block with more
      than one successor; it is "taken" when the dynamic successor is not
      the block laid out immediately after it;
    - calls between translations are not charged as branches (call/return
      prediction on real hardware is near-perfect via the RAS); their
      locality cost is captured by the callee entry fetch;
    - untranslated (interpreter) execution emits no fetches: the
      interpreter's own loop is small and cache-resident, and its dispatch
      cost is accounted by {!Tiers}. *)

type sink = {
  fetch : addr:int -> size:int -> unit;
  branch : pc:int -> target:int -> taken:bool -> unit;
  load : addr:int -> unit;
  store : addr:int -> unit;
}

(** [handler ~cache sink] — plug the result into {!Context.probes}.  Each
    translation's placement (block addresses, sizes and successor lists)
    is read from [cache] once, the first time the translation's function
    is entered, so the cache must not be re-placed while the probes run. *)
val handler : cache:Code_cache.t -> sink -> Context.handler
