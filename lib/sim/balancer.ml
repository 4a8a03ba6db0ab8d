module R = Js_util.Rng

type policy = Random | Round_robin | Least_outstanding | Warmup_weighted

let policy_to_string = function
  | Random -> "random"
  | Round_robin -> "round_robin"
  | Least_outstanding -> "least_outstanding"
  | Warmup_weighted -> "warmup_weighted"

let policy_of_string = function
  | "random" -> Some Random
  | "round_robin" | "round-robin" | "rr" -> Some Round_robin
  | "least_outstanding" | "least-outstanding" | "lo" -> Some Least_outstanding
  | "warmup_weighted" | "warmup-weighted" | "aware" | "warmup" -> Some Warmup_weighted
  | _ -> None

let all_policies = [ Random; Round_robin; Least_outstanding; Warmup_weighted ]

type t = { policy : policy; mutable cursor : int }

let create policy = { policy; cursor = 0 }
let policy t = t.policy

(* Every policy reads plain arrays and returns an index, so a pick
   allocates no array, closure or option.  The weighted draw is [Rng.sample_weighted] over the
   floored weights, inlined: the same left-to-right sum, the same
   [unit_float *. total] target and the same scan with its [n - 1]
   fallback, hence the same server and the same stream position. *)
let pick t rng ~n ~candidates ~outstanding ~weights =
  if n = 0 then -1
  else
    match t.policy with
    | Random -> candidates.(R.int rng n)
    | Round_robin ->
      let i = t.cursor mod n in
      t.cursor <- t.cursor + 1;
      candidates.(i)
    | Least_outstanding ->
      let best = ref candidates.(0) in
      let best_o = ref outstanding.(candidates.(0)) in
      for i = 1 to n - 1 do
        let o = outstanding.(candidates.(i)) in
        if o < !best_o then begin
          best := candidates.(i);
          best_o := o
        end
      done;
      !best
    | Warmup_weighted ->
      let total = ref 0. in
      for i = 0 to n - 1 do
        total := !total +. Float.max 1e-9 weights.(candidates.(i))
      done;
      let target = R.float rng !total in
      let i = ref 0 and acc = ref 0. and chosen = ref (-1) in
      while !chosen < 0 do
        if !i >= n - 1 then chosen := n - 1
        else begin
          acc := !acc +. Float.max 1e-9 weights.(candidates.(!i));
          if !acc >= target then chosen := !i else incr i
        end
      done;
      candidates.(!chosen)

(* Cross-region spillover target: round-robin over the currently-up foreign
   regions, deterministic given [cursor].  Returns the chosen region plus the
   advanced cursor, or [None] when no foreign region is up. *)
let pick_region ~home ~n_regions ~cursor ~up =
  if n_regions <= 1 then None
  else begin
    let chosen = ref None in
    let k = ref 0 in
    while !chosen = None && !k < n_regions do
      let r = (cursor + !k) mod n_regions in
      if r <> home && up r then chosen := Some r;
      incr k
    done;
    match !chosen with
    | None -> None
    | Some r -> Some (r, (cursor + !k) mod n_regions)
  end
