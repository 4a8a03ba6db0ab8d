(** Measured Vasm-level profile: what the Jump-Start seeders collect by
    instrumenting the optimized code (paper §V-A and §V-B).

    Accumulates, while instrumented optimized code "runs" (the
    interpreter's loop walking the translations, {!Context}):
    - true execution counts per vasm block, including slow paths and
      per-inline-context callee behaviour;
    - true arc counts between vasm blocks;
    - the tier-2 call graph: calls between translations, i.e. with inlined
      calls already folded away — the accurate C3 input. *)

type t

val create : unit -> t

(** Handler to plug into {!Context.probes}.  A translation's sink is its
    block counts and its arc store (unboxed counts, any destination),
    which the interpreter's loop bumps in place; each is created on the
    translation's first block or arc event, so a translation entered
    without running a block gains no entry.  Out-of-line calls bump the
    callee's entry count and the caller's call-graph row. *)
val handler : t -> Context.handler

(** [block_weights t vfunc] — dense per-block measured counts (zeros for
    never-executed blocks).  Like {!to_cfg}, it only reads: a translation
    with no counts, or with counts of another shape, reads as zeros and
    [t] is left as it was. *)
val block_weights : t -> Vasm.Vfunc.t -> float array

(** [arc_weight t vfunc (src, dst)]. *)
val arc_weight : t -> Vasm.Vfunc.t -> int * int -> float

(** [to_cfg t vfunc] — layout-ready CFG under measured weights; reads only,
    as {!block_weights} does. *)
val to_cfg : t -> Vasm.Vfunc.t -> Layout.Cfg.t

(** Measured tier-2 call graph: [(caller_root, callee_root, count)].
    Entry calls (no caller translation) are excluded. *)
val call_graph : t -> (int * int * int) list

(** Function entry counts at tier 2 (translation entries, inlined bodies
    excluded). *)
val entry_count : t -> Hhbc.Instr.fid -> int

(** All profiled root functions with their per-block count vectors, sorted
    by fid (consistency-pass enumeration). *)
val profiled_blocks : t -> (int * float array) list

(** All profiled vasm arcs as [(root_fid, [(src, dst, weight)])], sorted. *)
val profiled_arcs : t -> (int * (int * int * float) list) list

(** All tier-2 entry counters as [(fid, count)], sorted. *)
val entry_counts : t -> (int * int) list

(** Binary serialization (the §IV-B category-3 section of a Jump-Start
    package).  [deserialize] checks no id and raises
    {!Js_util.Binio.Corrupt} only on malformed bytes or on a count that is
    not finite and non-negative, which layout cannot take: the package decode
    range-checks function ids against the consumer repo, and block indices
    are only checkable against re-lowered translations, which is the
    {!Core.Package_check} consistency pass's job. *)
val serialize : t -> Js_util.Binio.Writer.t -> unit

val deserialize : Js_util.Binio.Reader.t -> t

(** The largest function id any table names ([-1] when empty): the package
    decode's range check against the consumer repo. *)
val max_fid : t -> int

(** [remap t ~f] re-keys every root function id through [f], dropping
    entries that map to [None] (stale-profile salvage: only strict-identical
    function matches keep their vasm-level profile — block indices are
    carried verbatim and P310/P311 re-check them against re-lowered
    translations). *)
val remap : t -> f:(int -> int option) -> t
