(** The semantics of the bytecode's value operators: [BinOp], [UnOp] and
    [Cast].

    This is the one definition of what an operator computes.  The
    interpreter ({!Interp.Engine}) executes it, and dataflow constant
    folding ({!Js_analysis.Dataflow}) evaluates it on constant operands,
    reading a raised error as "does not fold".  A folded constant therefore
    is the interpreter's result by construction. *)

(** Raised on a dynamic error: division or modulo by zero, arithmetic or
    bitwise operations on the wrong types, incomparable operands, or an
    unsupported cast.  {!Interp.Engine.Runtime_error} is this exception. *)
exception Runtime_error of string

val binop : Instr.binop -> Value.t -> Value.t -> Value.t
val unop : Instr.unop -> Value.t -> Value.t
val cast : Value.tag -> Value.t -> Value.t
