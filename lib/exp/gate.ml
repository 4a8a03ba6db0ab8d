module Stats = Js_util.Stats

type verdict = Improved | Indistinguishable | Regressed

let verdict_to_string = function
  | Improved -> "improved"
  | Indistinguishable -> "indistinguishable"
  | Regressed -> "regressed"

type comparison = {
  metric : string;
  n : int;
  baseline_mean : float;
  candidate_mean : float;
  effect : float;
  ci : float * float;
  min_effect : float;
  verdict : verdict;
}

let compare_paired ?(replicates = 1000) ?(confidence = 0.95) ?(min_effect = 0.01)
    ?(seed = 0xAB) ~metric ~baseline ~candidate () =
  let n = Array.length baseline in
  if n = 0 then invalid_arg "Gate.compare_paired: empty";
  if Array.length candidate <> n then
    invalid_arg "Gate.compare_paired: baseline/candidate length mismatch";
  if min_effect < 0. then invalid_arg "Gate.compare_paired: min_effect";
  (* Paired per-seed relative effects: positive means the candidate is
     larger.  For the lower-is-better metrics every gate uses (capacity
     loss, latency, time-to-X), larger is worse. *)
  let effects =
    Array.init n (fun i ->
        (candidate.(i) -. baseline.(i)) /. Float.max (Float.abs baseline.(i)) 1e-9)
  in
  let effect = Stats.mean effects in
  let ci =
    if n = 1 then (effect, effect)
    else Stats.ci_bootstrap ~replicates ~confidence ~seed effects Stats.mean
  in
  let lo, hi = ci in
  let verdict =
    if hi < -.min_effect then Improved
    else if lo > min_effect then Regressed
    else Indistinguishable
  in
  {
    metric;
    n;
    baseline_mean = Stats.mean baseline;
    candidate_mean = Stats.mean candidate;
    effect;
    ci;
    min_effect;
    verdict;
  }

let pass c = c.verdict <> Regressed

let pp fmt c =
  let lo, hi = c.ci in
  Format.fprintf fmt
    "%s: n=%d baseline=%.4g candidate=%.4g effect=%+.2f%% CI95=[%+.2f%%, %+.2f%%] \
     min_effect=%.2f%% -> %s"
    c.metric c.n c.baseline_mean c.candidate_mean (100. *. c.effect) (100. *. lo)
    (100. *. hi) (100. *. c.min_effect)
    (verdict_to_string c.verdict)
