(** The minihack bytecode instruction set.

    A stack-based, untyped ISA in the spirit of HHBC: the compiler produces it
    offline ("repo authoritative" mode) and the VM executes it via the
    interpreter or JIT translations.  Jump targets are absolute instruction
    indices within the owning function body. *)

(** Function id: index into the {!Repo.t} function table. *)
type fid = int

(** Class id: index into the {!Repo.t} class table. *)
type cid = int

(** Literal string id: index into the repo string table. *)
type sid = int

(** Interned name id (property and method names). *)
type nid = int

(** Static array id: index into the repo static-array table. *)
type aid = int

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Concat
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | BitAnd
  | BitOr
  | BitXor
  | Shl
  | Shr

type unop = Neg | Not | BitNot

type t =
  | Nop
  | LitInt of int
  | LitFloat of float
  | LitBool of bool
  | LitNull
  | LitStr of sid  (** push literal string from the repo string table *)
  | LitArr of aid  (** push (a fresh copy of) a static array *)
  | LoadLoc of int
  | StoreLoc of int
  | Pop
  | Dup
  | BinOp of binop
  | UnOp of unop
  | Jmp of int
  | JmpZ of int  (** pop; jump if falsy *)
  | JmpNZ of int  (** pop; jump if truthy *)
  | Call of fid * int  (** direct call: function id, arg count *)
  | CallMethod of nid * int  (** dynamic dispatch: method name, arg count *)
  | New of cid * int  (** allocate + run constructor with [n] args *)
  | GetThis
  | GetProp of nid  (** pop object; push property value *)
  | SetProp of nid  (** pop value, pop object; store *)
  | NewVec of int  (** pop [n] elements; push vec *)
  | VecGet  (** pop index, pop vec; push element *)
  | VecSet  (** pop value, index, vec; store *)
  | VecPush  (** pop value, pop vec; append *)
  | VecLen
  | NewDict of int  (** pop [n] (key, value) pairs; push dict *)
  | DictGet
  | DictSet
  | DictHas
  | InstanceOf of cid
  | Cast of Value.tag  (** dynamic cast/coercion for int/float/str/bool *)
  | Print  (** pop; write to VM output *)
  | Ret  (** pop return value; leave frame *)

(** Simulated encoded size in bytes of one instruction; drives the
    code-size model (profiling/optimized translations scale from it). *)
val byte_size : t -> int

(** {2 Stable structural hashing}

    FNV-1a 64-bit primitives (truncated to OCaml's 63-bit [int]) used by
    {!Repo.fingerprint} and the stale-profile matcher.
    Deliberately independent of [Hashtbl.hash], which caps traversal
    depth/breadth and is not stable across OCaml versions. *)

(** FNV-1a 64-bit offset basis (63-bit truncated). *)
val fnv_basis : int

(** [fnv_mix h v] folds one integer into the running hash. *)
val fnv_mix : int -> int -> int

(** [fnv_string h s] folds [s]'s length and bytes into the running hash. *)
val fnv_string : int -> string -> int

(** [fnv_float h f] folds the IEEE-754 bits of [f] into the running hash. *)
val fnv_float : int -> float -> int

(** Stable small integer identifying the constructor; pinned, append-only. *)
val opcode : t -> int

(** Stable small integer per [binop]; pinned, append-only. *)
val binop_index : binop -> int

(** [fnv_fold ?jump_base h i] mixes [i] into [h] field by field: constructor
    opcode then every immediate.  With [jump_base] the jump targets of
    [Jmp]/[JmpZ]/[JmpNZ] are rewritten relative to it (block-offset
    invariance for the stale-profile matcher's block hashes). *)
val fnv_fold : ?jump_base:int -> int -> t -> int

(** [branch_targets i] lists jump targets if [i] is a control transfer. *)
val branch_targets : t -> int list

(** [is_terminal i] is true for instructions that end a basic block
    ([Jmp], [JmpZ], [JmpNZ], [Ret]). *)
val is_terminal : t -> bool

val pp : Format.formatter -> t -> unit
