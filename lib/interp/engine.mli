(** The bytecode interpreter ("threaded interpreter", paper §II-A).

    This is the VM's semantic ground truth: JIT translations in this
    reproduction are performance/layout artifacts, while actual execution
    always flows through here.  Its one work counter is its fuel: each
    executed source instruction spends one unit, and {!steps} is the fuel
    spent.

    Profiling runs inside the loops, as HHVM makes counter bumps
    instructions of its translations ({!Probes}).  On a function's first
    entry the engine resolves the recorder's slots for it: tier-1 block,
    arc, call-site and property counters, or the function's own tier-2
    translation.  Every activation then bumps those slots itself; under
    tier 2 it also carries the translation it runs in, its inline node and
    its last vasm block, so a call decides in place whether the callee runs
    inlined, after the site's slow path, or in its own translation, and an
    inlined activation's return (normal or on error) is an arc back into
    its caller's block.  Only raw {!Probes.Events} call closures. *)

(** Raised on dynamic errors: undefined method, bad operand types,
    out-of-bounds vec access, stack overflow, fuel exhaustion.  It is
    {!Hhbc.Ops.Runtime_error}, re-exported: the value operators ([BinOp],
    [UnOp], [Cast]) are {!Hhbc.Ops}. *)
exception Runtime_error of string

type t

(** Inline-cache and frame-pool effectiveness counters, live-updated.
    Method-call sites distinguish monomorphic hits (receiver class matches
    the site's single cached entry) from polymorphic-table hits; property
    sites likewise.  A miss is a full repo/layout lookup that installed a
    new cache binding. *)
type cache_stats = {
  mutable meth_hit_mono : int;
  mutable meth_hit_poly : int;
  mutable meth_miss : int;
  mutable prop_hit_mono : int;
  mutable prop_hit_poly : int;
  mutable prop_miss : int;
  mutable frame_reuses : int;
  mutable frame_allocs : int;
}

(** [create ?probes ?fuel ?inline_cache ?typed repo heap] makes an
    interpreter.
    [fuel] bounds the total number of executed instructions (default: 200
    million); exceeding it raises {!Runtime_error}, protecting tests and
    simulations against non-terminating generated programs.

    The engine runs one of two loops, fixed at creation:
    - the translated loop, when [inline_cache] and [typed] are both [true]
      (the default).  Every function body must pass {!Js_analysis.Verify}
      ([create] raises {!Runtime_error} otherwise) and is translated once,
      at creation: hot straight-line bytecode patterns
      fuse into superinstructions, each [CallMethod] site carries a
      monomorphic-with-polymorphic-fallback method cache, each
      [GetProp]/[SetProp] site a [(class id -> physical slot)] cache, and
      call frames and operand stacks are reused across invocations;
    - the reference loop, when either flag is [false]: one source
      instruction per dispatch, no translation and no caches.  It is the
      oracle the translated loop is tested against, and what
      [--no-inline-cache] runs.

    Both loops give the same results, echo output, fuel spent and
    profiles (raw event streams, tier-1 counters, tier-2 counts and
    machine-event streams), at every fuel level.  [~typed:false] is a
    synonym for [~inline_cache:false]. *)
val create :
  ?probes:Probes.t ->
  ?fuel:int ->
  ?inline_cache:bool ->
  ?typed:bool ->
  Hhbc.Repo.t ->
  Mh_runtime.Heap.t ->
  t

val repo : t -> Hhbc.Repo.t
val heap : t -> Mh_runtime.Heap.t

(** Total instructions executed so far: the fuel spent, live at every
    point, probe callbacks included. *)
val steps : t -> int

(** Everything printed by [echo] so far. *)
val output : t -> string

(** The engine's live inline-cache counters (all zero on the reference
    loop). *)
val cache_stats : t -> cache_stats

(** The same counters as telemetry-ready [("interp.cache.*", value)] pairs,
    for {!Js_telemetry.import_counters}-style bulk export. *)
val cache_counters : t -> (string * int) list

(** [call t fid args] invokes a top-level function.
    @raise Runtime_error on dynamic errors. *)
val call : t -> Hhbc.Instr.fid -> Hhbc.Value.t list -> Hhbc.Value.t

(** [run_main t] executes the program entry point: the function named
    ["main"], or the first unit's main.
    @raise Runtime_error if no entry point exists. *)
val run_main : t -> Hhbc.Value.t
