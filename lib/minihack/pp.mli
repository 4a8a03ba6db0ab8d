(** Pretty-printer: AST back to minihack source.

    Guarantees round-tripping: [Parser.parse_program (to_source p)] yields a
    program equivalent to [p] (verified by property tests).  Used to inspect
    generated workloads and to write example programs to disk. *)

val pp_expr : Format.formatter -> Ast.expr -> unit

val to_source : Ast.program -> string
