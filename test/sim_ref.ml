(* Reference simulator primitives: the random generator, the latency sketch
   and the balancer pick exactly as they were before the push simulator's
   per-event path stopped allocating, kept as a test-only oracle.  The
   generator keeps its SplitMix64 state in a boxed [int64], the sketch keeps
   its buckets in a [Hashtbl], and the pick builds its weights with
   [Array.init] and reads servers through closures.  The properties in
   test_properties.ml drive these and the product modules side by side and
   require identical draws, identical quantiles and identical picks. *)

module Rng = struct
  type t = { mutable state : int64 }

  let golden_gamma = 0x9E3779B97F4A7C15L

  let mix64 z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let create seed = { state = mix64 (Int64.of_int seed) }

  let bits64 t =
    t.state <- Int64.add t.state golden_gamma;
    mix64 t.state

  let split t = { state = bits64 t }
  let copy t = { state = t.state }

  let int t bound =
    if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
    let mask = Int64.of_int max_int in
    let v = Int64.to_int (Int64.logand (bits64 t) mask) in
    v mod bound

  let unit_float t =
    let v = Int64.shift_right_logical (bits64 t) 11 in
    Int64.to_float v *. 0x1p-53

  let float t bound = unit_float t *. bound

  let exponential t ~mean =
    let u = 1. -. unit_float t in
    -.mean *. log u

  let gaussian t ~mu ~sigma =
    let rec non_zero () =
      let u = unit_float t in
      if u = 0. then non_zero () else u
    in
    let u1 = non_zero () and u2 = unit_float t in
    mu +. (sigma *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

  let sample_weighted t weights =
    let total = Array.fold_left ( +. ) 0. weights in
    if total <= 0. then invalid_arg "Rng.sample_weighted: non-positive total";
    let target = unit_float t *. total in
    let n = Array.length weights in
    let rec scan i acc =
      if i >= n - 1 then n - 1
      else
        let acc = acc +. weights.(i) in
        if acc >= target then i else scan (i + 1) acc
    in
    scan 0 0.
end

module Quantile = struct
  type t = {
    accuracy : float;
    gamma : float;
    inv_log_gamma : float;
    mutable zero_count : int;
    buckets : (int, int) Hashtbl.t;
    mutable total : int;
  }

  let min_value = 1e-9

  let create ?(accuracy = 0.01) () =
    if accuracy <= 0. || accuracy >= 1. then invalid_arg "Stats.Quantile.create: accuracy";
    let gamma = (1. +. accuracy) /. (1. -. accuracy) in
    {
      accuracy;
      gamma;
      inv_log_gamma = 1. /. log gamma;
      zero_count = 0;
      buckets = Hashtbl.create 64;
      total = 0;
    }

  let count t = t.total

  let add t x =
    if x < 0. || Float.is_nan x then invalid_arg "Stats.Quantile.add: negative or NaN";
    if x < min_value then t.zero_count <- t.zero_count + 1
    else begin
      let i = int_of_float (Float.ceil (log x *. t.inv_log_gamma)) in
      let c = match Hashtbl.find_opt t.buckets i with Some c -> c | None -> 0 in
      Hashtbl.replace t.buckets i (c + 1)
    end;
    t.total <- t.total + 1

  let merge t other =
    if t.accuracy <> other.accuracy then
      invalid_arg "Stats.Quantile.merge: mismatched accuracy";
    t.zero_count <- t.zero_count + other.zero_count;
    Hashtbl.iter
      (fun i c ->
        let c0 = match Hashtbl.find_opt t.buckets i with Some c0 -> c0 | None -> 0 in
        Hashtbl.replace t.buckets i (c0 + c))
      other.buckets;
    t.total <- t.total + other.total

  let quantile t q =
    if t.total = 0 then invalid_arg "Stats.Quantile.quantile: empty";
    if q < 0. || q > 1. then invalid_arg "Stats.Quantile.quantile: q out of range";
    let rank = int_of_float (q *. float_of_int (t.total - 1)) in
    if rank < t.zero_count then 0.
    else begin
      let indices =
        Hashtbl.fold (fun i _ acc -> i :: acc) t.buckets [] |> List.sort compare
      in
      let rec scan cum = function
        | [] -> 0.
        | i :: rest ->
          let cum = cum + Hashtbl.find t.buckets i in
          if cum > rank then
            2. *. (t.gamma ** float_of_int i) /. (t.gamma +. 1.)
          else scan cum rest
      in
      scan t.zero_count indices
    end
end

module Balancer = struct
  module P = Js_sim.Balancer

  type t = { policy : P.policy; mutable cursor : int }

  let create policy = { policy; cursor = 0 }

  let pick t rng ?n ~candidates ~outstanding ~capacity () =
    let n = match n with Some n -> n | None -> Array.length candidates in
    if n = 0 then None
    else
      match t.policy with
      | P.Random -> Some candidates.(Rng.int rng n)
      | P.Round_robin ->
        let i = t.cursor mod n in
        t.cursor <- t.cursor + 1;
        Some candidates.(i)
      | P.Least_outstanding ->
        let best = ref candidates.(0) in
        let best_o = ref (outstanding candidates.(0)) in
        for i = 1 to n - 1 do
          let o = outstanding candidates.(i) in
          if o < !best_o then begin
            best := candidates.(i);
            best_o := o
          end
        done;
        Some !best
      | P.Warmup_weighted ->
        let weights =
          Array.init n (fun i -> Float.max 1e-9 (capacity candidates.(i)))
        in
        Some candidates.(Rng.sample_weighted rng weights)
end
