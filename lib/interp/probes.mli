(** Profiling probes: what the interpreter counts while it serves.

    These are the instrumentation points HHVM's JIT makes instructions of
    its translations (paper §IV-B, §V): bytecode-level basic-block counters,
    call-target profiles for method dispatch, caller/callee arcs for the
    call graph and property-access counters for object layout (tier 1),
    then the vasm blocks, arcs and out-of-line calls of instrumented
    optimized code (tier 2).

    A product recorder resolves each counter once, per function,
    translation, arc, call site or class property, to a slot the loop
    bumps in place ({!Engine}), so a probe event calls no closure and
    allocates nothing:
    - {!Tier1} is the tier-1 recorder ({!Jit_profile.Collector});
    - {!Tier2} walks instrumented translations ({!Jit.Context}): each
      activation carries the translation it runs in, its inline node and
      its last vasm block, across calls, slow paths and inlined returns.

    {!Events} is the raw event stream.  Only the reference recorders in
    [test/probe_ref.ml], the oracle the product recorders are tested
    against, and a few tests consume it. *)

type fid = Hhbc.Instr.fid

(** {1 Raw events} *)

type events = {
  on_block : fid -> int -> unit;
      (** [on_block fid bb] — execution entered basic block [bb] of [fid] *)
  on_arc : fid -> src:int -> dst:int -> unit;
      (** control flowed from block [src] to block [dst] within one frame *)
  on_call : caller:fid -> site:int -> callee:fid -> unit;
      (** a call resolved at bytecode offset [site] of [caller] (both direct
          calls and dynamically dispatched method calls) *)
  on_func_entry : fid -> unit;
  on_func_exit : fid -> unit;
      (** the frame of [fid] is about to return (normally or on error) *)
  on_prop_access : Hhbc.Instr.cid -> Hhbc.Instr.nid -> addr:int -> write:bool -> unit;
      (** a property of class [cid] was accessed at simulated address [addr] *)
}

(** Events that do nothing, to override field by field. *)
val no_events : events

(** {1 Tier 1} *)

(** A function's counters: one per basic block, and its entry count. *)
type func_counts = { blocks : int array; entries : int ref }

(** One call site's counters for one callee. *)
type call_counts = {
  callee : fid;
  at_site : int ref;  (** calls from the site to [callee] *)
  in_graph : int ref;  (** the caller -> [callee] arc of the call graph *)
}

(** Each resolver runs once per engine and key, on the key's first event;
    only the reference loop, which does not know a property's physical
    slot, resolves a property counter on every access. *)
type tier1 = {
  func : fid -> func_counts;
      (** on the function's first entry, which also marks its unit touched *)
  total_entries : int ref;  (** bumped with every function's entry count *)
  arc : fid -> src:int -> dst:int -> int ref;  (** on an arc's first traversal *)
  call : caller:fid -> site:int -> callee:fid -> call_counts;
      (** on a site's first call to [callee] *)
  prop : Hhbc.Instr.cid -> Hhbc.Instr.nid -> int ref;
      (** on the first access to a property of a class (the receiver's
          dynamic class) *)
}

(** {1 Tier 2} *)

(** A translation's vasm arcs.  Each (source, destination) pair seen gets
    a slot in first-seen order, and all counts live in one flat array, so
    the loop bumps a slot it resolved once.  Any destination is accepted:
    inline returns and slow-path entries are arcs outside the successor
    lists. *)
type arc_row = { mutable dsts : int array; mutable slots : int array; mutable len : int }

type arcs = {
  rows : (int, arc_row) Hashtbl.t;  (** by source block: destinations and their slots *)
  mutable count : float array;  (** by slot *)
  mutable n : int;  (** slots in use *)
}

val new_arcs : unit -> arcs

(** Stands for a store not resolved yet. *)
val no_arcs : arcs

(** [arc_find a ~src ~dst] is the arc's slot, or [-1]. *)
val arc_find : arcs -> src:int -> dst:int -> int

(** [arc_slot a ~src ~dst] is the arc's slot, appended with count 0 when
    absent. *)
val arc_slot : arcs -> src:int -> dst:int -> int

(** Where a translation's vasm events go. *)
type sink =
  | Count of {
      counts : unit -> float array;
          (** the per-block counts, resolved on the translation's first block *)
      arcs : unit -> arcs;  (** the arc counts, resolved on its first arc *)
    }  (** bumped in place by the loop *)
  | Emit of { on_vblock : src:int -> int -> unit; on_varc : src:int -> dst:int -> unit }
      (** called in execution order: [on_vblock ~src blk] once per block
          run, for the arc from [src] ([-1]: none) and then the block;
          [on_varc] for an arc that no block follows (an inlined return) *)

(** One translation as the loop walks it.  Rows are indexed by inline
    node; a cell outside its row reads as [-1] (none). *)
type translation = {
  root : fid;  (** the translated function *)
  node_fid : int array;  (** inline node -> its function *)
  main : int array array;  (** node -> bytecode block -> main vasm block *)
  child : int array array;  (** node -> call site -> inlined child node *)
  slow : int array array;
      (** node -> bytecode block -> the slow-path vasm block of the call
          site that ends the block *)
  sink : sink;
  mutable counts : float array;  (** [Count]'s block counts once resolved, [[||]] before *)
  mutable arcs : arcs;  (** [Count]'s arc counts once resolved *)
  mutable arc_cache : int array;
      (** per source block, two (destination, slot) pairs the loop resolved
          ([-1]: free) *)
}

(** [translation ~root ~node_fid ~main ~child ~slow sink] with nothing
    resolved yet. *)
val translation :
  root:fid ->
  node_fid:int array ->
  main:int array array ->
  child:int array array ->
  slow:int array array ->
  sink ->
  translation

(** The counters of out-of-line (not inlined) calls. *)
type xcalls = {
  entry : fid -> int ref;  (** a function's out-of-line entries; on its first *)
  edge : caller:fid -> callee:fid -> int ref;
      (** calls from translation (or untranslated function) [caller] to
          [callee]; on the pair's first.  Request entries have no caller. *)
}

(** A data-access sink: property reads and writes, by simulated address. *)
type data = { load : addr:int -> unit; store : addr:int -> unit }

type tier2 = {
  lookup : fid -> translation option;
      (** a function's own translation, resolved on its first entry *)
  xcalls : xcalls option;
  data : data option;  (** property accesses, called directly by the loop *)
}

(** {1 Probes} *)

type t =
  | Off  (** no profiling *)
  | Events of events
  | Tier1 of tier1
  | Tier2 of tier2

(** [Off]. *)
val none : t
