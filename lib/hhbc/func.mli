(** Bytecode functions and their basic-block structure.

    Basic blocks are the granularity at which the tier-1 JIT inserts
    profiling counters (cf. paper §V-A: "instrumentation-based counters
    inserted at bytecode-level basic blocks"). *)

type t = {
  id : Instr.fid;
  name : string;
  unit_id : int;  (** owning unit *)
  class_id : Instr.cid option;  (** [Some c] for methods of class [c] *)
  n_params : int;
  n_locals : int;  (** locals including parameters (params come first) *)
  body : Instr.t array;
}

(** A basic block: a maximal straight-line instruction range. *)
type block = {
  bb_id : int;
  start : int;  (** index of the first instruction *)
  len : int;
  succs : int list;  (** successor block ids *)
}

(** [basic_blocks f] partitions the body into basic blocks.  Leaders are
    instruction 0, every branch target, and every instruction following a
    terminal.  The result is cached per call site by the VM, not here. *)
val basic_blocks : t -> block array

(** [block_of_instr blocks idx] returns the id of the block containing
    instruction [idx]. *)
val block_of_instr : block array -> int -> int

(** Simulated bytecode size in bytes (sum of instruction encodings). *)
val bytecode_size : t -> int

(** [validate f] checks structural invariants: jump targets in range, body
    non-empty, final instruction terminal, parameter/local counts coherent.
    Returns [Error msg] describing the first violation. *)
val validate : t -> (unit, string) result

val pp : Format.formatter -> t -> unit
