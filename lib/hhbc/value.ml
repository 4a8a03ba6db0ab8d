type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Vec of t array ref
  | Dict of (string, t) Hashtbl.t
  | Obj of int

type tag = TNull | TBool | TInt | TFloat | TStr | TVec | TDict | TObj

let tag = function
  | Null -> TNull
  | Bool _ -> TBool
  | Int _ -> TInt
  | Float _ -> TFloat
  | Str _ -> TStr
  | Vec _ -> TVec
  | Dict _ -> TDict
  | Obj _ -> TObj

let tag_to_string = function
  | TNull -> "null"
  | TBool -> "bool"
  | TInt -> "int"
  | TFloat -> "float"
  | TStr -> "string"
  | TVec -> "vec"
  | TDict -> "dict"
  | TObj -> "object"

let tag_index = function
  | TNull -> 0
  | TBool -> 1
  | TInt -> 2
  | TFloat -> 3
  | TStr -> 4
  | TVec -> 5
  | TDict -> 6
  | TObj -> 7

let truthy = function
  | Null -> false
  | Bool b -> b
  | Int n -> n <> 0
  | Float f -> f <> 0.
  | Str s -> s <> ""
  | Vec a -> Array.length !a > 0
  | Dict d -> Hashtbl.length d > 0
  | Obj _ -> true

let rec to_string = function
  | Null -> ""
  | Bool true -> "1"
  | Bool false -> ""
  | Int n -> string_of_int n
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.1f" f
    else string_of_float f
  | Str s -> s
  | Vec a ->
    let items = Array.to_list (Array.map to_string !a) in
    "vec[" ^ String.concat ", " items ^ "]"
  | Dict d ->
    let items =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) d []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.map (fun (k, v) -> k ^ " => " ^ to_string v)
    in
    "dict[" ^ String.concat ", " items ^ "]"
  | Obj h -> Printf.sprintf "Object(#%d)" h

let equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | Int x, Float y | Float y, Int x -> float_of_int x = y
  | Str x, Str y -> String.equal x y
  | Vec x, Vec y -> x == y
  | Dict x, Dict y -> x == y
  | Obj x, Obj y -> x = y
  | (Null | Bool _ | Int _ | Float _ | Str _ | Vec _ | Dict _ | Obj _), _ -> false

let to_float = function
  | Int n -> float_of_int n
  | Float f -> f
  | Bool true -> 1.
  | Bool false -> 0.
  | Null -> 0.
  | (Str _ | Vec _ | Dict _ | Obj _) as v ->
    invalid_arg ("Value.to_float: not numeric: " ^ tag_to_string (tag v))

let to_int = function
  | Int n -> n
  | Float f -> int_of_float f
  | Bool true -> 1
  | Bool false -> 0
  | Null -> 0
  | (Str _ | Vec _ | Dict _ | Obj _) as v ->
    invalid_arg ("Value.to_int: not numeric: " ^ tag_to_string (tag v))

let compare_values a b =
  match (a, b) with
  | Str x, Str y -> String.compare x y
  | (Null | Bool _ | Int _ | Float _), (Null | Bool _ | Int _ | Float _) ->
    Float.compare (to_float a) (to_float b)
  | _ ->
    invalid_arg
      (Printf.sprintf "Value.compare_values: cannot compare %s with %s"
         (tag_to_string (tag a)) (tag_to_string (tag b)))

let pp fmt v = Format.pp_print_string fmt (to_string v)
