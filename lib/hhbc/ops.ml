exception Runtime_error of string

let error fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

module V = Value
module I = Instr

let arith op a b =
  match (a, b) with
  | V.Int x, V.Int y -> (
    match op with
    | I.Add -> V.Int (x + y)
    | I.Sub -> V.Int (x - y)
    | I.Mul -> V.Int (x * y)
    | I.Div -> if y = 0 then error "division by zero" else V.Int (x / y)
    | I.Mod -> if y = 0 then error "modulo by zero" else V.Int (x mod y)
    | _ -> assert false)
  | (V.Int _ | V.Float _ | V.Bool _ | V.Null), (V.Int _ | V.Float _ | V.Bool _ | V.Null) -> (
    let x = V.to_float a and y = V.to_float b in
    match op with
    | I.Add -> V.Float (x +. y)
    | I.Sub -> V.Float (x -. y)
    | I.Mul -> V.Float (x *. y)
    | I.Div -> if y = 0. then error "division by zero" else V.Float (x /. y)
    | I.Mod -> error "modulo on non-integers"
    | _ -> assert false)
  | _ ->
    error "arithmetic on non-numeric operands (%s, %s)" (V.tag_to_string (V.tag a))
      (V.tag_to_string (V.tag b))

let bitwise op a b =
  match (a, b) with
  | V.Int x, V.Int y -> (
    match op with
    | I.BitAnd -> V.Int (x land y)
    | I.BitOr -> V.Int (x lor y)
    | I.BitXor -> V.Int (x lxor y)
    | I.Shl -> V.Int (x lsl (y land 63))
    | I.Shr -> V.Int (x asr (y land 63))
    | _ -> assert false)
  | _ -> error "bitwise operation on non-integers"

let binop op a b =
  match op with
  | I.Add | I.Sub | I.Mul | I.Div | I.Mod -> arith op a b
  | I.BitAnd | I.BitOr | I.BitXor | I.Shl | I.Shr -> bitwise op a b
  | I.Concat -> V.Str (V.to_string a ^ V.to_string b)
  | I.Eq -> V.Bool (V.equal a b)
  | I.Ne -> V.Bool (not (V.equal a b))
  | I.Lt | I.Le | I.Gt | I.Ge -> (
    let c = try V.compare_values a b with Invalid_argument msg -> error "%s" msg in
    match op with
    | I.Lt -> V.Bool (c < 0)
    | I.Le -> V.Bool (c <= 0)
    | I.Gt -> V.Bool (c > 0)
    | I.Ge -> V.Bool (c >= 0)
    | _ -> assert false)

let unop op a =
  match (op, a) with
  | I.Neg, V.Int n -> V.Int (-n)
  | I.Neg, V.Float f -> V.Float (-.f)
  | I.Neg, _ -> error "negation of non-number"
  | I.Not, v -> V.Bool (not (V.truthy v))
  | I.BitNot, V.Int n -> V.Int (lnot n)
  | I.BitNot, _ -> error "bitwise not of non-integer"

let cast tag v =
  match tag with
  | V.TBool -> V.Bool (V.truthy v)
  | V.TStr -> V.Str (V.to_string v)
  | V.TInt -> (
    match v with
    | V.Str s -> V.Int (match int_of_string_opt (String.trim s) with Some n -> n | None -> 0)
    | V.Int _ | V.Float _ | V.Bool _ | V.Null -> V.Int (V.to_int v)
    | V.Vec _ | V.Dict _ | V.Obj _ -> error "cannot cast %s to int" (V.tag_to_string (V.tag v)))
  | V.TFloat -> (
    match v with
    | V.Str s -> V.Float (match float_of_string_opt (String.trim s) with Some f -> f | None -> 0.)
    | V.Int _ | V.Float _ | V.Bool _ | V.Null -> V.Float (V.to_float v)
    | V.Vec _ | V.Dict _ | V.Obj _ -> error "cannot cast %s to float" (V.tag_to_string (V.tag v)))
  | V.TNull | V.TVec | V.TDict | V.TObj ->
    error "unsupported cast to %s" (V.tag_to_string tag)
