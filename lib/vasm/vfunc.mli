(** Lowered translation bodies ("Vasm", paper §V-A).

    A [Vfunc.t] is the machine-code shape of one optimized translation: basic
    blocks with byte sizes and control arcs, produced by {!Lower} from a
    bytecode function plus its inline tree.  Block weights are {e not} stored
    here — they are a property of which profile you believe (estimated from
    bytecode counters vs measured by optimized-code instrumentation), which
    is the crux of the paper's basic-block layout improvement. *)

(** Role of a block within its source bytecode basic block. *)
type role =
  | Main  (** the straight-line fast path *)
  | Slow  (** side-exit/slow path taken when a JIT guard fails *)

type block = {
  id : int;
  size : int;  (** machine-code bytes *)
  succs : int list;
  node : int;  (** inline-tree node this block belongs to *)
  bb : int;  (** source bytecode basic block within that node *)
  role : role;
}

type t = {
  root_fid : Hhbc.Instr.fid;
  tree : Inline_tree.t;
  blocks : block array;  (** indexed by id *)
  entry : int;
  main_of : int array array;  (** [main_of.(node).(bb)]: main block id, or [-1] *)
  slow_of : int array array;  (** [slow_of.(node).(bb)]: slow block id, or [-1] *)
}

(** Total code bytes. *)
val code_size : t -> int

val n_blocks : t -> int

(** All (src, dst) control arcs, derived from successor lists. *)
val arcs : t -> (int * int) array

(** [main_block t ~node ~bb] — main block for a bytecode block of an inline
    node, if lowered. *)
val main_block : t -> node:int -> bb:int -> int option

val slow_block : t -> node:int -> bb:int -> int option

val pp_summary : Format.formatter -> t -> unit
