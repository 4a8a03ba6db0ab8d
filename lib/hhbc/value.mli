(** Runtime values of the minihack virtual machine.

    The value model is a simplified Hack: immutable scalars, mutable [vec]
    (growable array) and [dict] (string-keyed hash table) containers with
    reference semantics, and objects represented as opaque heap handles
    resolved by {!Mh_runtime.Heap}.  The bytecode is untyped — every operand
    is a [t] and operations perform dynamic coercions, which is exactly what
    makes profile-guided type specialization profitable in the JIT. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Vec of t array ref  (** growable array; the [ref] allows in-place resize *)
  | Dict of (string, t) Hashtbl.t
  | Obj of int  (** heap handle, see {!Mh_runtime.Heap} *)

(** Type tags, used for profiling and JIT type specialization. *)
type tag = TNull | TBool | TInt | TFloat | TStr | TVec | TDict | TObj

val tag : t -> tag
val tag_to_string : tag -> string

val tag_index : tag -> int

(** Truthiness under minihack semantics: [Null], [false], [0], [0.], [""] and
    empty containers are false; everything else is true. *)
val truthy : t -> bool

(** String coercion (used by [Concat] and [Print]). Objects print as
    ["Object(#n)"]; containers print their contents. *)
val to_string : t -> string

(** Loose equality: numeric values compare numerically across [Int]/[Float];
    containers and objects compare by identity. *)
val equal : t -> t -> bool

(** Numeric comparison for relational operators.
    @raise Invalid_argument when operands are not comparable. *)
val compare_values : t -> t -> int

(** Arithmetic coercion to float. @raise Invalid_argument on non-numeric. *)
val to_float : t -> float

(** Arithmetic coercion to int. @raise Invalid_argument on non-numeric. *)
val to_int : t -> int

val pp : Format.formatter -> t -> unit
