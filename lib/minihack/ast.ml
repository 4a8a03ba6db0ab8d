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
  | And
  | Or
  | BitAnd
  | BitOr
  | BitXor
  | Shl
  | Shr

type unop = Neg | Not

type expr =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Null
  | This
  | Var of string
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Call of string * expr list
  | MethodCall of expr * string * expr list
  | PropGet of expr * string
  | New of string * expr list
  | VecLit of expr list
  | DictLit of (expr * expr) list
  | Index of expr * expr
  | InstanceOf of expr * string

type lvalue = LVar of string | LIndex of expr * expr | LProp of expr * string

type stmt =
  | Expr of expr
  | Assign of lvalue * expr
  | VecPushStmt of expr * expr
  | If of (expr * block) list * block
  | While of expr * block
  | For of stmt option * expr option * stmt option * block
  | Foreach of expr * string * block
  | Return of expr option
  | Echo of expr
  | Break
  | Continue

and block = stmt list

type func_decl = { fname : string; params : string list; body : block }
type prop_decl = { pname : string; pdefault : expr option }

type class_decl = {
  cname : string;
  cparent : string option;
  cprops : prop_decl list;
  cmethods : func_decl list;
}

type decl = DFunc of func_decl | DClass of class_decl
type program = decl list
