let mean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.mean: empty";
  Array.fold_left ( +. ) 0. xs /. float_of_int n

let stddev xs =
  if Array.length xs = 0 then invalid_arg "Stats.stddev: empty";
  let m = mean xs in
  let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs in
  sqrt (acc /. float_of_int (Array.length xs))

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  Array.iter
    (fun x -> if Float.is_nan x then invalid_arg "Stats.percentile: NaN sample")
    xs;
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let median xs = percentile xs 50.

(* Percentile-bootstrap confidence interval of an arbitrary statistic:
   resample [xs] with replacement [replicates] times, evaluate [stat] on each
   resample, and return the (alpha/2, 1 - alpha/2) percentiles of the
   replicate distribution.  Deterministic: the resampling stream is a fresh
   SplitMix64 generator from [seed], so equal inputs give equal intervals. *)
let ci_bootstrap ?(replicates = 1000) ?(confidence = 0.95) ~seed xs stat =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.ci_bootstrap: empty";
  if replicates <= 0 then invalid_arg "Stats.ci_bootstrap: replicates must be positive";
  if confidence <= 0. || confidence >= 1. then
    invalid_arg "Stats.ci_bootstrap: confidence out of range";
  let rng = Rng.create seed in
  let resample = Array.make n 0. in
  let reps =
    Array.init replicates (fun _ ->
        for i = 0 to n - 1 do
          resample.(i) <- xs.(Rng.int rng n)
        done;
        stat resample)
  in
  let alpha = (1. -. confidence) /. 2. in
  (percentile reps (100. *. alpha), percentile reps (100. *. (1. -. alpha)))

module Series = struct
  type t = { mutable times : float array; mutable values : float array; mutable len : int }

  let create () = { times = Array.make 16 0.; values = Array.make 16 0.; len = 0 }

  let ensure t =
    if t.len = Array.length t.times then begin
      let grow a = Array.append a (Array.make (Array.length a) 0.) in
      t.times <- grow t.times;
      t.values <- grow t.values
    end

  let add t ~time ~value =
    if t.len > 0 && time < t.times.(t.len - 1) then
      invalid_arg "Series.add: samples must be added in time order";
    ensure t;
    t.times.(t.len) <- time;
    t.values.(t.len) <- value;
    t.len <- t.len + 1

  let length t = t.len

  let to_array t = Array.init t.len (fun i -> (t.times.(i), t.values.(i)))

  let value_at t time =
    if t.len = 0 then invalid_arg "Series.value_at: empty";
    if time <= t.times.(0) then t.values.(0)
    else if time >= t.times.(t.len - 1) then t.values.(t.len - 1)
    else begin
      (* Binary search for the sample interval containing [time]. *)
      let lo = ref 0 and hi = ref (t.len - 1) in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if t.times.(mid) <= time then lo := mid else hi := mid
      done;
      let t0 = t.times.(!lo) and t1 = t.times.(!hi) in
      let v0 = t.values.(!lo) and v1 = t.values.(!hi) in
      if t1 = t0 then v0 else v0 +. ((time -. t0) /. (t1 -. t0) *. (v1 -. v0))
    end

  let integral t ~until =
    if t.len = 0 then 0.
    else begin
      let acc = ref 0. in
      let i = ref 0 in
      while !i < t.len - 1 && t.times.(!i + 1) <= until do
        let dt = t.times.(!i + 1) -. t.times.(!i) in
        acc := !acc +. (dt *. (t.values.(!i) +. t.values.(!i + 1)) /. 2.);
        incr i
      done;
      if !i < t.len - 1 && t.times.(!i) < until then begin
        (* Partial last trapezoid up to [until] inside the sampled range. *)
        let v_end = value_at t until in
        let dt = until -. t.times.(!i) in
        acc := !acc +. (dt *. (t.values.(!i) +. v_end) /. 2.)
      end
      else if !i = t.len - 1 && until > t.times.(!i) && Float.is_finite until then
        (* Flat tail beyond the last sample: the series clamps to its last
           value ([value_at] semantics), so the window [t_last, until]
           contributes a rectangle rather than zero. *)
        acc := !acc +. ((until -. t.times.(!i)) *. t.values.(!i));
      !acc
    end

  let resample t ~step ~until =
    if step <= 0. then invalid_arg "Series.resample: step must be positive";
    let n = int_of_float (Float.floor (until /. step)) + 1 in
    Array.init n (fun i ->
        let time = float_of_int i *. step in
        (time, value_at t time))

  let capacity_loss t ~peak ~until =
    if peak <= 0. || until <= 0. then invalid_arg "Series.capacity_loss";
    let served = integral t ~until in
    1. -. (served /. (peak *. until))
end

module Quantile = struct
  (* DDSketch-style relative-error quantile estimator: geometric buckets
     index = ceil(ln x / ln gamma) with gamma = (1+a)/(1-a), so the bucket
     midpoint estimate 2*gamma^i/(gamma+1) is within relative error [a] of
     any value mapped into bucket i.  Two sketches with the same accuracy
     share bucket boundaries, which makes merging exact: merging the
     per-server sketches and sketching the concatenated stream produce the
     same counts, hence identical quantile answers.

     Buckets are a dense count array over the window of indices seen so far
     ([counts.(k)] counts bucket [base + k]), grown by doubling toward the
     new index, so [add] allocates nothing once the window covers the
     stream.  Finite values index between ceil(ln 1e-9 / ln gamma) and
     ceil(ln max_float / ln gamma): about 36.5k buckets at the default 1%
     accuracy, however wide the stream. *)
  type t = {
    accuracy : float;
    gamma : float;
    inv_log_gamma : float;
    mutable zero_count : int;  (** values below the resolution floor *)
    mutable counts : int array;
    mutable base : int;  (** bucket index of [counts.(0)] *)
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
      counts = [||];
      base = 0;
      total = 0;
    }

  let accuracy t = t.accuracy
  let count t = t.total

  (* Add [c] to bucket [i], first widening the window to cover it: at least
     doubling it, with the new slack on the side that grew. *)
  let bump t i c =
    let len = Array.length t.counts in
    if len = 0 then begin
      t.counts <- Array.make 16 0;
      t.base <- i - 8
    end
    else if i < t.base || i >= t.base + len then begin
      let lo = min t.base i and hi = max (t.base + len - 1) i in
      let size = max (hi - lo + 1) (2 * len) in
      let base = if i < t.base then hi - size + 1 else lo in
      let counts = Array.make size 0 in
      Array.blit t.counts 0 counts (t.base - base) len;
      t.counts <- counts;
      t.base <- base
    end;
    t.counts.(i - t.base) <- t.counts.(i - t.base) + c

  let add t x =
    if x < 0. || Float.is_nan x then invalid_arg "Stats.Quantile.add: negative or NaN";
    if x = Float.infinity then invalid_arg "Stats.Quantile.add: infinite";
    if x < min_value then t.zero_count <- t.zero_count + 1
    else bump t (int_of_float (Float.ceil (log x *. t.inv_log_gamma))) 1;
    t.total <- t.total + 1

  let merge t other =
    if t.accuracy <> other.accuracy then
      invalid_arg "Stats.Quantile.merge: mismatched accuracy";
    t.zero_count <- t.zero_count + other.zero_count;
    (* [other] may be [t]: a self-merge stays inside its own window, so
       [bump] never replaces the array being iterated *)
    let base = other.base in
    Array.iteri (fun k c -> if c > 0 then bump t (base + k) c) other.counts;
    t.total <- t.total + other.total

  let quantile t q =
    if t.total = 0 then invalid_arg "Stats.Quantile.quantile: empty";
    if q < 0. || q > 1. then invalid_arg "Stats.Quantile.quantile: q out of range";
    let rank = int_of_float (q *. float_of_int (t.total - 1)) in
    if rank < t.zero_count then 0.
    else begin
      (* counts sum to [total], so the scan stops inside the window *)
      let cum = ref (t.zero_count + t.counts.(0)) and k = ref 0 in
      while !cum <= rank do
        incr k;
        cum := !cum + t.counts.(!k)
      done;
      2. *. (t.gamma ** float_of_int (t.base + !k)) /. (t.gamma +. 1.)
    end

  let p50 t = quantile t 0.50
  let p95 t = quantile t 0.95
  let p99 t = quantile t 0.99
end

module Histogram = struct
  type t = { lo : float; hi : float; counts : int array; mutable total : int }

  let create ~lo ~hi ~buckets =
    if hi <= lo || buckets <= 0 then invalid_arg "Histogram.create";
    { lo; hi; counts = Array.make buckets 0; total = 0 }

  let add t x =
    let b = Array.length t.counts in
    let idx =
      if x < t.lo then 0
      else if x >= t.hi then b - 1
      else int_of_float ((x -. t.lo) /. (t.hi -. t.lo) *. float_of_int b)
    in
    t.counts.(min idx (b - 1)) <- t.counts.(min idx (b - 1)) + 1;
    t.total <- t.total + 1

  let count t = t.total
  let bucket_counts t = Array.copy t.counts

  let merge ~into src =
    if into.lo <> src.lo || into.hi <> src.hi
       || Array.length into.counts <> Array.length src.counts
    then invalid_arg "Histogram.merge: shape mismatch";
    Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts;
    into.total <- into.total + src.total

  let quantile t q =
    if t.total = 0 then invalid_arg "Histogram.quantile: empty";
    if q < 0. || q > 1. then invalid_arg "Histogram.quantile: q out of range";
    let target = q *. float_of_int t.total in
    let b = Array.length t.counts in
    let width = (t.hi -. t.lo) /. float_of_int b in
    let rec scan i acc =
      if i >= b then t.hi
      else
        let acc' = acc +. float_of_int t.counts.(i) in
        if acc' >= target then t.lo +. ((float_of_int i +. 0.5) *. width)
        else scan (i + 1) acc'
    in
    scan 0 0.
end
