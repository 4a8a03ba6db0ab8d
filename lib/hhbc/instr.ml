type fid = int
type cid = int
type sid = int
type nid = int
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
  | LitStr of sid
  | LitArr of aid
  | LoadLoc of int
  | StoreLoc of int
  | Pop
  | Dup
  | BinOp of binop
  | UnOp of unop
  | Jmp of int
  | JmpZ of int
  | JmpNZ of int
  | Call of fid * int
  | CallMethod of nid * int
  | New of cid * int
  | GetThis
  | GetProp of nid
  | SetProp of nid
  | NewVec of int
  | VecGet
  | VecSet
  | VecPush
  | VecLen
  | NewDict of int
  | DictGet
  | DictSet
  | DictHas
  | InstanceOf of cid
  | Cast of Value.tag
  | Print
  | Ret

let byte_size = function
  | Nop -> 1
  | LitInt _ -> 5
  | LitFloat _ -> 9
  | LitBool _ -> 2
  | LitNull -> 1
  | LitStr _ -> 5
  | LitArr _ -> 5
  | LoadLoc _ -> 3
  | StoreLoc _ -> 3
  | Pop -> 1
  | Dup -> 1
  | BinOp _ -> 2
  | UnOp _ -> 2
  | Jmp _ -> 5
  | JmpZ _ -> 5
  | JmpNZ _ -> 5
  | Call _ -> 6
  | CallMethod _ -> 6
  | New _ -> 6
  | GetThis -> 1
  | GetProp _ -> 5
  | SetProp _ -> 5
  | NewVec _ -> 3
  | VecGet -> 1
  | VecSet -> 1
  | VecPush -> 1
  | VecLen -> 1
  | NewDict _ -> 3
  | DictGet -> 1
  | DictSet -> 1
  | DictHas -> 1
  | InstanceOf _ -> 5
  | Cast _ -> 2
  | Print -> 1
  | Ret -> 1

let branch_targets = function
  | Jmp target | JmpZ target | JmpNZ target -> [ target ]
  | Nop | LitInt _ | LitFloat _ | LitBool _ | LitNull | LitStr _ | LitArr _
  | LoadLoc _ | StoreLoc _ | Pop | Dup | BinOp _ | UnOp _ | Call _
  | CallMethod _ | New _ | GetThis | GetProp _ | SetProp _ | NewVec _ | VecGet
  | VecSet | VecPush | VecLen | NewDict _ | DictGet | DictSet | DictHas
  | InstanceOf _ | Cast _ | Print | Ret ->
    []

let is_terminal = function
  | Jmp _ | JmpZ _ | JmpNZ _ | Ret -> true
  | Nop | LitInt _ | LitFloat _ | LitBool _ | LitNull | LitStr _ | LitArr _
  | LoadLoc _ | StoreLoc _ | Pop | Dup | BinOp _ | UnOp _ | Call _
  | CallMethod _ | New _ | GetThis | GetProp _ | SetProp _ | NewVec _ | VecGet
  | VecSet | VecPush | VecLen | NewDict _ | DictGet | DictSet | DictHas
  | InstanceOf _ | Cast _ | Print ->
    false

(* --- stable structural hashing ----------------------------------------
   FNV-1a 64-bit, truncated to OCaml's 63-bit int.  [Hashtbl.hash] is
   explicitly NOT used anywhere in the hashing path: it caps traversal
   depth/breadth (large payloads collide) and its value is not guaranteed
   stable across OCaml versions, which would silently defeat both the
   package fingerprint gate and stale-profile matching across builds. *)

let fnv_basis = 0x4bf29ce484222325
let fnv_prime = 0x100000001b3
let fnv_mix h v = (h lxor v) * fnv_prime

let fnv_string h s =
  let h = ref (fnv_mix h (String.length s)) in
  String.iter (fun c -> h := fnv_mix !h (Char.code c)) s;
  !h

(* Stable small integer per constructor — pinned; append-only. *)
let opcode = function
  | Nop -> 0
  | LitInt _ -> 1
  | LitFloat _ -> 2
  | LitBool _ -> 3
  | LitNull -> 4
  | LitStr _ -> 5
  | LitArr _ -> 6
  | LoadLoc _ -> 7
  | StoreLoc _ -> 8
  | Pop -> 9
  | Dup -> 10
  | BinOp _ -> 11
  | UnOp _ -> 12
  | Jmp _ -> 13
  | JmpZ _ -> 14
  | JmpNZ _ -> 15
  | Call _ -> 16
  | CallMethod _ -> 17
  | New _ -> 18
  | GetThis -> 19
  | GetProp _ -> 20
  | SetProp _ -> 21
  | NewVec _ -> 22
  | VecGet -> 23
  | VecSet -> 24
  | VecPush -> 25
  | VecLen -> 26
  | NewDict _ -> 27
  | DictGet -> 28
  | DictSet -> 29
  | DictHas -> 30
  | InstanceOf _ -> 31
  | Cast _ -> 32
  | Print -> 33
  | Ret -> 34

let binop_index = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Mod -> 4 | Concat -> 5
  | Lt -> 6 | Le -> 7 | Gt -> 8 | Ge -> 9 | Eq -> 10 | Ne -> 11
  | BitAnd -> 12 | BitOr -> 13 | BitXor -> 14 | Shl -> 15 | Shr -> 16

let fnv_float h f =
  let bits = Int64.bits_of_float f in
  let h = fnv_mix h (Int64.to_int (Int64.logand bits 0xffffffffL)) in
  fnv_mix h (Int64.to_int (Int64.shift_right_logical bits 32))

(* [fnv_fold ?jump_base h i] mixes instruction [i] into [h], field by field.
   With [jump_base] the jump targets are rewritten relative to it, which is
   what makes the stale-profile matcher's block hashes offset-invariant. *)
let fnv_fold ?(jump_base = 0) h instr =
  let h = fnv_mix h (opcode instr) in
  match instr with
  | Nop | LitNull | Pop | Dup | GetThis | VecGet | VecSet | VecPush | VecLen
  | DictGet | DictSet | DictHas | Print | Ret ->
    h
  | LitInt n -> fnv_mix h n
  | LitFloat f -> fnv_float h f
  | LitBool b -> fnv_mix h (if b then 1 else 0)
  | LitStr sid -> fnv_mix h sid
  | LitArr aid -> fnv_mix h aid
  | LoadLoc l | StoreLoc l -> fnv_mix h l
  | BinOp op -> fnv_mix h (binop_index op)
  | UnOp op -> fnv_mix h (match op with Neg -> 0 | Not -> 1 | BitNot -> 2)
  | Jmp t | JmpZ t | JmpNZ t -> fnv_mix h (t - jump_base)
  | Call (fid, n) -> fnv_mix (fnv_mix h fid) n
  | CallMethod (nid, n) -> fnv_mix (fnv_mix h nid) n
  | New (cid, n) -> fnv_mix (fnv_mix h cid) n
  | GetProp nid | SetProp nid -> fnv_mix h nid
  | NewVec n | NewDict n -> fnv_mix h n
  | InstanceOf cid -> fnv_mix h cid
  | Cast tg -> fnv_mix h (Value.tag_index tg)

let binop_to_string = function
  | Add -> "Add"
  | Sub -> "Sub"
  | Mul -> "Mul"
  | Div -> "Div"
  | Mod -> "Mod"
  | Concat -> "Concat"
  | Lt -> "Lt"
  | Le -> "Le"
  | Gt -> "Gt"
  | Ge -> "Ge"
  | Eq -> "Eq"
  | Ne -> "Ne"
  | BitAnd -> "BitAnd"
  | BitOr -> "BitOr"
  | BitXor -> "BitXor"
  | Shl -> "Shl"
  | Shr -> "Shr"

let unop_to_string = function Neg -> "Neg" | Not -> "Not" | BitNot -> "BitNot"

let pp fmt = function
  | Nop -> Format.fprintf fmt "Nop"
  | LitInt n -> Format.fprintf fmt "Int %d" n
  | LitFloat f -> Format.fprintf fmt "Float %g" f
  | LitBool b -> Format.fprintf fmt "Bool %b" b
  | LitNull -> Format.fprintf fmt "Null"
  | LitStr s -> Format.fprintf fmt "Str s%d" s
  | LitArr a -> Format.fprintf fmt "Arr a%d" a
  | LoadLoc i -> Format.fprintf fmt "LoadLoc %d" i
  | StoreLoc i -> Format.fprintf fmt "StoreLoc %d" i
  | Pop -> Format.fprintf fmt "Pop"
  | Dup -> Format.fprintf fmt "Dup"
  | BinOp op -> Format.fprintf fmt "BinOp %s" (binop_to_string op)
  | UnOp op -> Format.fprintf fmt "UnOp %s" (unop_to_string op)
  | Jmp l -> Format.fprintf fmt "Jmp %d" l
  | JmpZ l -> Format.fprintf fmt "JmpZ %d" l
  | JmpNZ l -> Format.fprintf fmt "JmpNZ %d" l
  | Call (f, n) -> Format.fprintf fmt "Call f%d/%d" f n
  | CallMethod (m, n) -> Format.fprintf fmt "CallMethod n%d/%d" m n
  | New (c, n) -> Format.fprintf fmt "New c%d/%d" c n
  | GetThis -> Format.fprintf fmt "GetThis"
  | GetProp p -> Format.fprintf fmt "GetProp n%d" p
  | SetProp p -> Format.fprintf fmt "SetProp n%d" p
  | NewVec n -> Format.fprintf fmt "NewVec %d" n
  | VecGet -> Format.fprintf fmt "VecGet"
  | VecSet -> Format.fprintf fmt "VecSet"
  | VecPush -> Format.fprintf fmt "VecPush"
  | VecLen -> Format.fprintf fmt "VecLen"
  | NewDict n -> Format.fprintf fmt "NewDict %d" n
  | DictGet -> Format.fprintf fmt "DictGet"
  | DictSet -> Format.fprintf fmt "DictSet"
  | DictHas -> Format.fprintf fmt "DictHas"
  | InstanceOf c -> Format.fprintf fmt "InstanceOf c%d" c
  | Cast tg -> Format.fprintf fmt "Cast %s" (Value.tag_to_string tg)
  | Print -> Format.fprintf fmt "Print"
  | Ret -> Format.fprintf fmt "Ret"
