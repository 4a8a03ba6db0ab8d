(** Tier-1 profile counters — the raw material of a Jump-Start package.

    These mirror the data categories of paper §IV-B:
    - bytecode-level basic-block and arc counters per function (category 2),
    - call-target profiles per call site, the "JIT target profiles" driving
      method-dispatch specialization and inlining (category 2),
    - property-access counters keyed by class/property, read back as the
      paper's table from the string ["K::P"] to a counter ({!prop_table},
      §V-C),
    - function entry counters and tier-1 caller/callee arcs (the inaccurate
      call graph that §V-B improves upon),
    - the set of touched units/strings/arrays for consumer preloading
      (category 1).

    This module owns the counters' wire layout: {!serialize} writes it and
    {!read_raw} is its only reader.  The exact package decode validates
    the raw record against its repo ({!of_raw}); stale-profile salvage
    re-anchors it onto a drifted build ({!Stale_match.transfer}). *)

type t

val create : Hhbc.Repo.t -> t

(* --- recording ---
   Every table is dense and indexed by function, source block, call site,
   class or unit, and every count is a cell.  The interpreter records
   through {!recorder} (normally via {!Collector}): it resolves each cell
   once and then bumps it itself.  Arcs, calls, property accesses and unit
   loads, recorded or imported, are total on (non-negative) ids beyond the
   repo: they are kept, so that a forged profile serializes and
   {!deserialize} rejects it. *)

(** The cells the interpreter's loop bumps: a function's block counters
    and entry count (resolving them marks the function's unit touched),
    and the counter of each arc, call site and callee, and class
    property.  Recording through it gives the counters, and the bytes,
    that the event-driven reference recorder in [test/probe_ref.ml] gives
    for the same events. *)
val recorder : t -> Interp.Probes.tier1

(** [record_unit_load t uid] marks unit [uid] touched, in first-touch
    order. *)
val record_unit_load : t -> int -> unit

(* --- bulk import (stale-profile transfer) ---
   Absolute-count setters used by {!Stale_match.transfer} to rebuild a
   counter set against a new repo from a matched stale profile.  Vector
   setters replace, sparse-key setters add. *)

(** [import_block_counts t fid counts] adopts [counts] as the function's
    block vector.  @raise Invalid_argument on arity mismatch. *)
val import_block_counts : t -> Hhbc.Instr.fid -> int array -> unit

val import_arc : t -> Hhbc.Instr.fid -> src:int -> dst:int -> int -> unit

(** [import_call] adds to the per-site target table only; it does {e not}
    touch the call graph, which {!import_cg} writes (the transfer moves the
    call-graph section independently). *)
val import_call :
  t -> caller:Hhbc.Instr.fid -> site:int -> callee:Hhbc.Instr.fid -> int -> unit

val import_cg : t -> caller:Hhbc.Instr.fid -> callee:Hhbc.Instr.fid -> int -> unit

(** [import_entries t fid e] sets the entry counter (maintains the total). *)
val import_entries : t -> Hhbc.Instr.fid -> int -> unit

val import_prop : t -> Hhbc.Instr.cid -> Hhbc.Instr.nid -> int -> unit

(* --- queries --- *)

(** The repo these counters were recorded (or deserialized) against. *)
val repo : t -> Hhbc.Repo.t

(** Number of functions in that repo (counter-vector arity). *)
val n_funcs : t -> int

(** All profiled call sites as [(fid, site)], sorted. *)
val call_site_list : t -> (int * int) list

(** All property counters as [(cid, nid, count)], sorted.  A counter
    imported or decoded with count 0 is listed (and serialized) like any
    other; so is a zero-count arc in {!arc_counts}. *)
val prop_entries : t -> (int * int * int) list

(** [block_counts t fid] returns per-basic-block execution counts, or [None]
    if the function was never profiled. *)
val block_counts : t -> Hhbc.Instr.fid -> int array option

(** [arc_counts t fid] lists [(src_bb, dst_bb, count)]. *)
val arc_counts : t -> Hhbc.Instr.fid -> (int * int * int) list

(** [call_targets t fid site] returns the callee distribution at a call
    site, most frequent first. *)
val call_targets : t -> Hhbc.Instr.fid -> int -> (Hhbc.Instr.fid * int) list

(** [dominant_target t fid site] is the most frequent callee with its
    fraction of all calls from the site. *)
val dominant_target : t -> Hhbc.Instr.fid -> int -> (Hhbc.Instr.fid * float) option

val func_entries : t -> Hhbc.Instr.fid -> int

(** Tier-1 call-graph arcs [(caller, callee, count)], aggregated over sites.
    This is the pre-Jump-Start C3 input (paper §V-B): representative of
    tier-1 code but inaccurate for inlined tier-2 code. *)
val call_graph : t -> (int * int * int) list

(** [prop_access_count t cid nid] — by ids, exactly as recorded (the
    receiver's dynamic class). *)
val prop_access_count : t -> Hhbc.Instr.cid -> Hhbc.Instr.nid -> int

(** [prop_hotness t cid nid] — access count rolled up over every class that
    inherits from [cid].  Property layout sorts the {e declaring} class's
    layer, while accesses are recorded against the receiver's dynamic class;
    this is the aggregation the layout consumes. *)
val prop_hotness : t -> Hhbc.Instr.cid -> Hhbc.Instr.nid -> int

(** The underlying ["K::P" -> count] table (paper §V-C), by class and
    property name id. *)
val prop_table : t -> (string * int) list

(** Functions with any profile data, hottest first (by entry count). *)
val profiled_funcs : t -> Hhbc.Instr.fid list

(** Units touched during profiling, in first-touch order (preload list). *)
val touched_units : t -> int list

(** Total profiled function entries (coverage metric for validation). *)
val total_entries : t -> int

(** Deep copy (seeders snapshot counters before serializing). *)
val copy : t -> t

(** Binary serialization (payload only; framing/CRC is the package layer's
    job): seven sections, block counters first and touched units last. *)
val serialize : t -> Js_util.Binio.Writer.t -> unit

(** The serialized sections as the bytes give them, with {e no} id checked:
    [(fid, block counts)], [(fid, [(src, dst, count)])],
    [((fid, site), [(callee, count)])], [(fid, entries)],
    [(caller, callee, count)], [(cid, nid, count)] and the touched units
    in first-touch order.  The exact decode checks the ids against its
    repo ({!of_raw}); stale-profile salvage re-anchors them onto a drifted
    build ({!Stale_match.transfer}). *)
type raw = {
  rc_blocks : (int * int array) list;
  rc_arcs : (int * (int * int * int) list) list;
  rc_sites : ((int * int) * (int * int) list) list;
  rc_entries : (int * int) list;
  rc_cg : (int * int * int) list;
  rc_props : (int * int * int) list;
  rc_units : int list;
}

(** The one reader of the {!serialize} layout.
    @raise Js_util.Binio.Corrupt on malformed input. *)
val read_raw : Js_util.Binio.Reader.t -> raw

(** [of_raw repo raw] validates every id against [repo] and imports the
    record.  It raises {!Js_util.Binio.Corrupt} naming the first
    out-of-range field, section by section — a profile package must never
    crash the consumer with an unchecked array access. *)
val of_raw : Hhbc.Repo.t -> raw -> t

(** [deserialize repo r] is [of_raw repo (read_raw r)]. *)
val deserialize : Hhbc.Repo.t -> Js_util.Binio.Reader.t -> t
