(* The SplitMix64 state lives unboxed in 8 bytes: a boxed [int64] field
   would allocate a fresh box on every draw.  [bits64] and [mix64] are
   inlined into every draw in this module, so [int] and the float draws
   keep the state in registers from load to store. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] bits64 t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix64 s

let split t = of_state (bits64 t)
let copy t = Bytes.copy t

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.of_int max_int in
  let v = Int64.to_int (Int64.logand (bits64 t) mask) in
  v mod bound

let[@inline] unit_float t =
  (* 53 random bits mapped to [0,1). *)
  let v = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float v *. 0x1p-53

let float t bound = unit_float t *. bound

let bool t p =
  if p <= 0. then false
  else if p >= 1. then true
  else unit_float t < p

let exponential t ~mean =
  let u = 1. -. unit_float t in
  -.mean *. log u

let gaussian t ~mu ~sigma =
  let u1 = ref (unit_float t) in
  while !u1 = 0. do
    u1 := unit_float t
  done;
  let u2 = unit_float t in
  mu +. (sigma *. sqrt (-2. *. log !u1) *. cos (2. *. Float.pi *. u2))

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_weighted t weights =
  let n = Array.length weights in
  let total = ref 0. in
  for i = 0 to n - 1 do
    total := !total +. weights.(i)
  done;
  if !total <= 0. then invalid_arg "Rng.sample_weighted: non-positive total";
  let target = unit_float t *. !total in
  let i = ref 0 and acc = ref 0. and chosen = ref (-1) in
  while !chosen < 0 do
    if !i >= n - 1 then chosen := n - 1
    else begin
      acc := !acc +. weights.(!i);
      if !acc >= target then chosen := !i else incr i
    end
  done;
  !chosen
