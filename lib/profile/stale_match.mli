(** BOLT-style stale-profile matching across code pushes (paper §VI-B).

    A package profiled against build A is salvaged for build B by matching
    functions (qualified name, then id-free strict structural hash for
    rename detection, then loose hash) and, within each matched pair,
    matching basic blocks by structural hash with positional tie-breaking —
    blocks are never matched across functions, so identical trivial bodies
    cannot steal each other's counters.  Matched counters transfer onto a
    fresh {!Counters.t} for build B; unmatched or dataflow-infeasible
    counters are dropped so the result always clears the P300–P321 package
    gates.  Feasibility is judged by the same rule the package gates use,
    {!Js_analysis.Verify.facts}. *)

(** Per-function match signature, computed against the profiled build. *)
type func_sig = {
  sg_name : string;  (** qualified: ["Class::method"] or the bare name *)
  sg_strict : int;
      (** id-free hash of arity shape + whole body, table ids resolved to
          their content (callee names, class names, string/name text) *)
  sg_loose : int;  (** opcode + non-id immediates only; survives renames *)
  sg_body_len : int;
  sg_block_starts : int array;
  sg_block_lens : int array;
  sg_block_strict : int array;
  sg_block_loose : int array;
  sg_unit : int;
}

(** The match table embedded in every v4 package: everything needed to
    re-anchor its counters onto a drifted build, without that build's ids. *)
type shape = {
  sh_funcs : func_sig array;  (** indexed by the profiled build's fid *)
  sh_class_names : string array;
  sh_names : string array;
  sh_unit_paths : string array;
}

val shape_of_repo : Hhbc.Repo.t -> shape
val write_shape : Js_util.Binio.Writer.t -> shape -> unit

(** @raise Js_util.Binio.Corrupt on malformed input, including ragged
    per-block vectors and block starts that do not rise strictly from 0
    inside the body. *)
val read_shape : Js_util.Binio.Reader.t -> shape

type stats = {
  funcs_total : int;
  funcs_matched : int;
  funcs_by_name : int;
  funcs_by_strict_hash : int;  (** rename detections *)
  funcs_by_loose_hash : int;
  blocks_total : int;
  blocks_matched : int;
  counters_total : int;  (** block-counter mass in the stale profile *)
  counters_transferred : int;  (** mass that landed on the live repo *)
  arcs_dropped : int;
  sites_dropped : int;
  props_dropped : int;
}

(** Fraction of counter mass that survived, clamped to [0, 1] — the salvage
    threshold knob ([Options.salvage_min_match]). *)
val quality : stats -> float

val matched_fraction : stats -> float

type transfer = {
  counters : Counters.t;  (** rebuilt against the live repo *)
  fid_map : int option array;  (** old fid -> live fid *)
  strict_match : bool array;
      (** old fid: matched with an identical body — exact counters, no
          entry-ratio rescale, vasm profile transplantable *)
  unit_map : int option array;  (** old uid -> live uid (by path) *)
  func_order : int array -> int array;  (** remap + dedup a placement order *)
  preload_units : int array -> int array;
  stats : stats;
}

(** [transfer repo shape raw] matches the stale build described by [shape]
    onto [repo] and rebuilds its counters from [raw], whose ids belong to
    the stale build and are range-checked here.  For matched-but-edited
    functions whose entry block has no CFG predecessors, block/arc counts
    are rescaled so the entry block agrees with the (exactly transferred)
    entry counter; strict-identical matches are left untouched, keeping a
    zero-churn transfer byte-identical under {!Counters.serialize}. *)
val transfer : Hhbc.Repo.t -> shape -> Counters.raw -> transfer

val pp_stats : Format.formatter -> stats -> unit
