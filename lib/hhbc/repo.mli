(** The bytecode repo: the offline-compiled, immutable program image.

    Mirrors HHVM's repo-authoritative deployment (paper §II-A): the whole
    application — units, functions, classes, literal strings and static
    arrays — is compiled ahead of time and shipped to every server; only JIT
    state differs across servers at runtime. *)

type t = private {
  units : Unit_def.t array;
  funcs : Func.t array;
  classes : Class_def.t array;
  strings : string array;  (** literal string table *)
  static_arrays : Value.t array array;  (** static array table (vec payloads) *)
  names : string array;  (** interned property/method names *)
  ctors : int option array;
      (** per-class constructor, resolved once at load time (see {!ctor_of}) *)
}

val func : t -> Instr.fid -> Func.t
val cls : t -> Instr.cid -> Class_def.t
val unit_of : t -> int -> Unit_def.t
val string : t -> Instr.sid -> string
val static_array : t -> Instr.aid -> Value.t array
val name : t -> Instr.nid -> string

val n_funcs : t -> int
val n_classes : t -> int
val n_units : t -> int
val n_strings : t -> int
val n_static_arrays : t -> int
val n_names : t -> int

(** Lookup by source name; [None] if undefined. *)
val find_func_by_name : t -> string -> Func.t option

val find_class_by_name : t -> string -> Class_def.t option

(** [find_name t s] returns the interned id for name [s], if any. *)
val find_name : t -> string -> Instr.nid option

(** [is_ancestor t ~ancestor ~cls] walks the parent chain (reflexive). *)
val is_ancestor : t -> ancestor:Instr.cid -> cls:Instr.cid -> bool

(** [resolve_method t cid name] walks the hierarchy from [cid] upwards and
    returns the implementing function, or [None]. *)
val resolve_method : t -> Instr.cid -> Instr.nid -> Instr.fid option

(** [ctor_of t cid] is the [__construct] implementation reached from [cid],
    resolved once when the repo was sealed — the [New] opcode's fast path
    (no per-allocation name lookup or hierarchy walk). *)
val ctor_of : t -> Instr.cid -> Instr.fid option

(** [validate t] checks cross-table invariants (every referenced id in every
    function body resolves; class parents exist and are acyclic; every
    function's own {!Func.validate} passes). *)
val validate : t -> (unit, string) result

(** [fingerprint t] — a deterministic, non-negative structural hash of the
    repo (entity counts, function names and bodies, interned strings/names).
    Stamped into every published package so consumers on a {e different}
    application build reject the profile as stale instead of importing
    counters collected against other code (paper §VII profile reuse across
    releases).  O(bytecode) — compute once and cache at boot. *)
val fingerprint : t -> int

(** Incremental construction, used by the minihack compiler and the synthetic
    workload generator.  Ids are handed out in insertion order.  The builder
    interns strings and names, deduplicating. *)
module Builder : sig
  type repo = t
  type b

  val create : unit -> b
  val intern_string : b -> string -> Instr.sid
  val intern_name : b -> string -> Instr.nid
  val add_static_array : b -> Value.t array -> Instr.aid

  (** [reserve_func b] allocates a function id before its body is known
      (needed for mutual recursion); the body is supplied later with
      {!set_func}. *)
  val reserve_func : b -> Instr.fid

  val set_func : b -> Instr.fid -> Func.t -> unit

  (** [add_func b f] is [reserve_func] + [set_func]; [f.id] is overwritten
      with the allocated id and the corrected record is returned. *)
  val add_func : b -> Func.t -> Instr.fid

  val reserve_class : b -> Instr.cid
  val set_class : b -> Instr.cid -> Class_def.t -> unit
  val add_class : b -> Class_def.t -> Instr.cid
  val add_unit : b -> Unit_def.t -> int

  (** [finish b] seals the repo. @raise Invalid_argument if a reserved slot
      was never filled. *)
  val finish : b -> repo
end

val pp_summary : Format.formatter -> t -> unit
