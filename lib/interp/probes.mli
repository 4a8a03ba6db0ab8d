(** Profiling probes fired by the interpreter.

    These are the instrumentation points HHVM's tier-1 JIT inserts (paper
    §IV-B, §V): bytecode-level basic-block counters, call-target profiles for
    method dispatch, caller/callee arcs for the call graph, and
    property-access counters for object layout.  The Jump-Start core wires
    these into its profile-data collector; passing {!none} runs uninstrumented.
*)

type t = {
  on_block : Hhbc.Instr.fid -> int -> unit;
      (** [on_block fid bb] — execution entered basic block [bb] of [fid] *)
  on_arc : Hhbc.Instr.fid -> src:int -> dst:int -> unit;
      (** control flowed from block [src] to block [dst] within one frame *)
  on_call : caller:Hhbc.Instr.fid -> site:int -> callee:Hhbc.Instr.fid -> unit;
      (** a call resolved at bytecode offset [site] of [caller] (both direct
          calls and dynamically dispatched method calls) *)
  on_func_entry : Hhbc.Instr.fid -> unit;
  on_func_exit : Hhbc.Instr.fid -> unit;
      (** the frame of [fid] is about to return (normally or on error) *)
  on_prop_access : Hhbc.Instr.cid -> Hhbc.Instr.nid -> addr:int -> write:bool -> unit;
      (** a property of class [cid] was accessed at simulated address [addr] *)
}

(** No-op probes. *)
val none : t
