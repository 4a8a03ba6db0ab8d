module R = Js_util.Rng

type params = {
  seed : int;
  n_funcs : int;
  core_funcs : int;
  mean_size : int;
  core_p_max : float;
  core_exponent : float;
  tail_p_max : float;
  tail_p_min : float;
  weight_exponent : float;
  instrs_per_request : float;
}

let default_params =
  {
    seed = 7;
    n_funcs = 60_000;
    core_funcs = 6_000;
    mean_size = 3_000;
    core_p_max = 0.95;
    core_exponent = 0.65;
    tail_p_max = 3e-4;
    tail_p_min = 8e-6;
    weight_exponent = 0.35;
    instrs_per_request = 120.0e6;
  }

type mfunc = { size : int; p_touch : float; weight : float }
type t = { params : params; funcs : mfunc array }

let generate params =
  let rng = R.create params.seed in
  let n = params.n_funcs in
  let p_touch =
    Array.init n (fun r ->
        if r < params.core_funcs then
          Float.min params.core_p_max
            (params.core_p_max /. (float_of_int (r + 1) ** params.core_exponent))
        else begin
          (* log-uniform over [tail_p_min, tail_p_max] *)
          let u = R.float rng 1. in
          params.tail_p_min *. ((params.tail_p_max /. params.tail_p_min) ** u)
        end)
  in
  (* Tail probabilities are shuffled so discovery order is not rank order
     within the tail; the core keeps its rank structure. *)
  let raw_weight = Array.init n (fun r -> 1. /. (float_of_int (r + 1) ** params.weight_exponent)) in
  let expected = ref 0. in
  for r = 0 to n - 1 do
    expected := !expected +. (p_touch.(r) *. raw_weight.(r))
  done;
  let scale = params.instrs_per_request /. !expected in
  let funcs =
    Array.init n (fun r ->
        (* lognormal-ish size: exponential mixture around the mean *)
        let size =
          max 200 (int_of_float (R.exponential rng ~mean:(float_of_int params.mean_size)))
        in
        { size; p_touch = p_touch.(r); weight = raw_weight.(r) *. scale })
  in
  { params; funcs }

let total_size t = Array.fold_left (fun acc f -> acc + f.size) 0 t.funcs

let sample_discovery t rng =
  Array.map
    (fun f ->
      if f.p_touch <= 0. then max_int
      else begin
        (* geometric: ceil(ln U / ln (1-p)) *)
        let u = Float.max 1e-300 (R.float rng 1.) in
        let k = Float.ceil (log u /. log (1. -. Float.min 0.999999 f.p_touch)) in
        max 1 (int_of_float k)
      end)
    t.funcs

let request_weight_moments t =
  (* Per-request executed instructions W = sum_f Bernoulli(p_f) * w_f with
     independent touches: mean = sum p w, var = sum p (1-p) w^2.  The
     discrete-event simulator samples per-request service demand from a
     distribution matched to these two moments. *)
  let mean = ref 0. and var = ref 0. in
  Array.iter
    (fun f ->
      mean := !mean +. (f.p_touch *. f.weight);
      var := !var +. (f.p_touch *. (1. -. f.p_touch) *. f.weight *. f.weight))
    t.funcs;
  (!mean, sqrt !var)

let coverage t ~discovered =
  let total = ref 0. and got = ref 0. in
  Array.iteri
    (fun i f ->
      let share = f.p_touch *. f.weight in
      total := !total +. share;
      if discovered i then got := !got +. share)
    t.funcs;
  if !total = 0. then 0. else !got /. !total
