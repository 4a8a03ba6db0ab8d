(* Tests for the warmup-statistics harness (lib/exp): PELT changepoint
   detection, warmup-taxonomy classification, significance gates and the
   seeds x configs matrix runner. *)

module CP = Js_exp.Changepoint
module CL = Js_exp.Classify
module G = Js_exp.Gate
module H = Js_exp.Harness
module Rng = Js_util.Rng

let check_float = Alcotest.(check (float 1e-9))

(* --- changepoint: units --- *)

let test_cp_empty_and_short () =
  Alcotest.(check int) "empty -> no segments" 0 (List.length (CP.detect [||]));
  let segs = CP.detect [| 1.; 2. |] in
  Alcotest.(check int) "shorter than 2*min_segment -> one segment" 1 (List.length segs);
  check_float "its mean" 1.5 (List.hd segs).CP.mean;
  Alcotest.(check (list int)) "no interior changepoints" [] (CP.changepoints segs)

let test_cp_constant_series () =
  let segs = CP.detect (Array.make 100 3.5) in
  Alcotest.(check int) "constant -> one segment" 1 (List.length segs);
  check_float "mean" 3.5 (List.hd segs).CP.mean

let test_cp_single_step () =
  let xs = Array.init 60 (fun i -> if i < 25 then 10. else 20.) in
  let segs = CP.detect xs in
  Alcotest.(check (list int)) "step found exactly" [ 25 ] (CP.changepoints segs);
  (match segs with
  | [ a; b ] ->
    check_float "left mean" 10. a.CP.mean;
    check_float "right mean" 20. b.CP.mean
  | _ -> Alcotest.fail "expected two segments");
  Alcotest.(check bool) "invalid config rejected" true
    (try
       ignore (CP.detect ~config:{ CP.penalty_factor = 0.; min_segment = 3 } xs);
       false
     with Invalid_argument _ -> true)

(* --- changepoint: properties --- *)

(* Piecewise-constant signal whose adjacent levels always differ by at
   least 1 (cumulative jumps in [1, 3]) under uniform noise of amplitude
   0.1: every true breakpoint must be recovered within +-2 samples and no
   spurious breakpoint may appear far from every true one.  Run at the
   conservative bench config (penalty 8, min_segment 6): because the
   penalty scales with the estimated noise variance, spurious splits are a
   noise-shape lottery at any amplitude, and only the persistence floor
   makes the no-spurious half of the property hold across the whole seed
   space (verified exhaustively over seeds 0..999 x k 1..3). *)
let prop_cp_recovers_known_breakpoints =
  QCheck.Test.make ~name:"changepoint recovers known breakpoints" ~count:60
    QCheck.(pair small_nat (int_range 1 3))
    (fun (seed, k) ->
      let rng = Rng.create (0xC0FFEE + seed) in
      let seg_len = 12 in
      let n = (k + 1) * seg_len in
      let levels = Array.make (k + 1) 0. in
      for i = 1 to k do
        levels.(i) <- levels.(i - 1) +. 1. +. Rng.float rng 2.
      done;
      let xs =
        Array.init n (fun i -> levels.(i / seg_len) +. (Rng.float rng 0.2 -. 0.1))
      in
      let truth = List.init k (fun i -> (i + 1) * seg_len) in
      let config = { CP.penalty_factor = 8.0; min_segment = 6 } in
      let found = CP.changepoints (CP.detect ~config xs) in
      let near a b = abs (a - b) <= 2 in
      List.for_all (fun t -> List.exists (near t) found) truth
      && List.for_all (fun f -> List.exists (near f) truth) found)

let prop_cp_deterministic =
  QCheck.Test.make ~name:"changepoint detection is deterministic" ~count:40
    QCheck.small_nat
    (fun seed ->
      let rng = Rng.create (0xDE7 + seed) in
      let xs =
        Array.init 80 (fun i ->
            (if i < 40 then 0. else 3.) +. Rng.gaussian rng ~mu:0. ~sigma:0.3)
      in
      CP.detect xs = CP.detect xs)

(* Pure stationary noise must classify as flat with tts = 0.  "Zero
   changepoints" would be too strong: the penalty is proportional to the
   estimated noise variance, so whether a lucky run of samples pays for a
   split depends only on the noise shape, never its amplitude, and every
   finite penalty has a nonzero false-positive rate.  What the taxonomy
   relies on is weaker and true: any spurious segment's mean stays inside
   the equivalence band, so the run still reads as flat-from-the-start
   (1% noise vs the 5% default band; verified exhaustively over seeds
   0..499 x n 20..150). *)
let prop_cp_pure_noise_classifies_flat =
  QCheck.Test.make ~name:"pure noise classifies flat" ~count:60
    QCheck.(pair small_nat (int_range 20 150))
    (fun (seed, n) ->
      let rng = Rng.create (0xB1A5 + seed) in
      let xs =
        Array.init n (fun i ->
            (float_of_int i, Rng.gaussian rng ~mu:100. ~sigma:1.))
      in
      let r = CL.classify xs in
      r.CL.cls = CL.Flat && r.CL.tts = 0.)

let prop_cp_segments_partition =
  QCheck.Test.make ~name:"segments partition the series" ~count:60
    QCheck.(pair small_nat (int_range 1 120))
    (fun (seed, n) ->
      let rng = Rng.create (0x9A97 + seed) in
      let xs =
        Array.init n (fun i ->
            (if i * 3 < n then 0. else 10.) +. Rng.gaussian rng ~mu:0. ~sigma:0.5)
      in
      let segs = CP.detect xs in
      let rec contiguous pos = function
        | [] -> pos = n
        | s :: rest -> s.CP.start = pos && s.CP.stop > s.CP.start && contiguous s.CP.stop rest
      in
      contiguous 0 segs)

(* --- classify --- *)

let samples_of values = Array.mapi (fun i v -> (float_of_int i, v)) values

let test_classify_flat () =
  let r = CL.classify (samples_of (Array.make 40 2.)) in
  Alcotest.(check string) "flat" "flat" (CL.cls_to_string r.CL.cls);
  check_float "tts" 0. r.CL.tts;
  check_float "steady mean" 2. r.CL.steady_mean

let test_classify_warmup () =
  (* high early latency decaying to a long steady tail *)
  let xs = Array.init 60 (fun i -> if i < 12 then 9. else 1.) in
  let r = CL.classify (samples_of xs) in
  Alcotest.(check string) "warmup" "warmup" (CL.cls_to_string r.CL.cls);
  check_float "steady mean" 1. r.CL.steady_mean;
  check_float "tts = first steady sample's offset" 12. r.CL.tts

let test_classify_slowdown () =
  (* latency steps UP and stays there: the server got worse *)
  let xs = Array.init 60 (fun i -> if i < 20 then 1. else 4.) in
  let r = CL.classify (samples_of xs) in
  Alcotest.(check string) "slowdown" "slowdown" (CL.cls_to_string r.CL.cls)

let test_classify_no_steady_state () =
  (* the only steady stretch begins in the last fifth of the run *)
  let xs = Array.init 100 (fun i -> if i < 80 then 9. else 1.) in
  let r = CL.classify (samples_of xs) in
  Alcotest.(check string) "nss" "no_steady_state" (CL.cls_to_string r.CL.cls)

let test_classify_cyclic () =
  (* significant deviations alternating around the steady level *)
  let xs =
    Array.concat
      [ Array.make 10 9.; Array.make 10 1.; Array.make 10 9.; Array.make 10 1.;
        Array.make 10 9.; Array.make 20 5.
      ]
  in
  let r = CL.classify ~config:{ CL.default_config with CL.steady_frac = 1.0 } (samples_of xs) in
  Alcotest.(check string) "cyclic" "cyclic" (CL.cls_to_string r.CL.cls)

let test_classify_rejects_empty () =
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (CL.classify [||]);
       false
     with Invalid_argument _ -> true)

(* --- gate --- *)

let test_gate_verdicts () =
  let base = [| 100.; 110.; 90.; 105. |] in
  let better = Array.map (fun x -> 0.5 *. x) base in
  let worse = Array.map (fun x -> 1.5 *. x) base in
  let g = G.compare_paired ~min_effect:0.01 ~metric:"m" ~baseline:base ~candidate:better () in
  Alcotest.(check string) "better -> improved" "improved" (G.verdict_to_string g.G.verdict);
  Alcotest.(check bool) "improved passes" true (G.pass g);
  let g = G.compare_paired ~min_effect:0.01 ~metric:"m" ~baseline:base ~candidate:worse () in
  Alcotest.(check string) "worse -> regressed" "regressed" (G.verdict_to_string g.G.verdict);
  Alcotest.(check bool) "regressed fails" false (G.pass g);
  let g = G.compare_paired ~min_effect:0.5 ~metric:"m" ~baseline:base ~candidate:worse () in
  Alcotest.(check string) "inside the band -> indistinguishable" "indistinguishable"
    (G.verdict_to_string g.G.verdict);
  Alcotest.(check bool) "indistinguishable passes" true (G.pass g)

let test_gate_paired_removes_between_seed_variance () =
  (* per-seed values vary wildly, but the candidate is always exactly 10%
     better: pairing must yield a tight CI around -10% *)
  let rng = Rng.create 77 in
  let base = Array.init 12 (fun _ -> 50. +. Rng.float rng 200.) in
  let cand = Array.map (fun x -> 0.9 *. x) base in
  let g = G.compare_paired ~min_effect:0.05 ~metric:"m" ~baseline:base ~candidate:cand () in
  let lo, hi = g.G.ci in
  check_float "effect is exactly -10%" (-0.1) g.G.effect;
  check_float "ci lo" (-0.1) lo;
  check_float "ci hi" (-0.1) hi;
  Alcotest.(check string) "improved" "improved" (G.verdict_to_string g.G.verdict)

let test_gate_errors () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "empty rejected" true
    (raises (fun () -> ignore (G.compare_paired ~metric:"m" ~baseline:[||] ~candidate:[||] ())));
  Alcotest.(check bool) "length mismatch rejected" true
    (raises (fun () ->
         ignore (G.compare_paired ~metric:"m" ~baseline:[| 1. |] ~candidate:[| 1.; 2. |] ())))

(* --- harness --- *)

let test_derive_seeds () =
  let a = H.derive_seeds ~seed:42 ~n:8 in
  let b = H.derive_seeds ~seed:42 ~n:8 in
  Alcotest.(check (array int)) "deterministic" a b;
  let distinct = Array.to_list a |> List.sort_uniq compare |> List.length in
  Alcotest.(check int) "pairwise distinct" 8 distinct;
  Alcotest.(check (array int)) "prefix stable as n grows"
    (Array.sub (H.derive_seeds ~seed:42 ~n:12) 0 8)
    a;
  Array.iter (fun s -> Alcotest.(check bool) "non-negative" true (s >= 0)) a

let test_bin_series () =
  let samples = [| (0.5, 2.); (1.0, 4.); (7.0, 10.); (12.5, 6.) |] in
  let binned = H.bin_series ~bin:5. samples in
  Alcotest.(check int) "empty windows skipped" 3 (Array.length binned);
  let t0, v0 = binned.(0) and t1, v1 = binned.(1) and t2, v2 = binned.(2) in
  check_float "window 0 center" 2.5 t0;
  check_float "window 0 mean" 3. v0;
  check_float "window 1 center" 7.5 t1;
  check_float "window 1 mean" 10. v1;
  check_float "window 2 center" 12.5 t2;
  check_float "window 2 mean" 6. v2

(* A tiny synthetic matrix: config "cold" warms up slowly, config "warm"
   is flat, both as pure functions of the replicate seed — checks matrix
   shape, pairing, classification and summarize end to end without a
   simulator run. *)
let synthetic_configs =
  let series ~warm ~seed:_ =
    [| Array.init 60 (fun i ->
           let t = float_of_int i in
           if warm || i >= 15 then (t, 1.) else (t, 8.)) |]
  in
  [ ("cold", fun ~seed -> series ~warm:false ~seed); ("warm", fun ~seed -> series ~warm:true ~seed) ]

let test_harness_matrix_and_summary () =
  let seeds = H.derive_seeds ~seed:7 ~n:3 in
  let results = H.run ~bin:1. ~configs:synthetic_configs ~seeds () in
  Alcotest.(check int) "2 configs x 3 seeds x 1 server" 6 (List.length results);
  Alcotest.(check bool) "rerun identical" true (results = H.run ~bin:1. ~configs:synthetic_configs ~seeds ());
  let summaries = H.summarize results in
  Alcotest.(check int) "one summary per config" 2 (List.length summaries);
  let s name = List.find (fun s -> s.H.s_config = name) summaries in
  let cold = s "cold" and warm = s "warm" in
  Alcotest.(check int) "cold runs" 3 cold.H.runs;
  Alcotest.(check int) "cold all warmup" 3 (List.assoc CL.Warmup cold.H.counts);
  Alcotest.(check int) "warm all flat" 3 (List.assoc CL.Flat warm.H.counts);
  Alcotest.(check bool) "cold tts positive" true (cold.H.tts_mean > 0.);
  check_float "warm tts zero" 0. warm.H.tts_mean;
  let lo, hi = cold.H.tts_ci in
  Alcotest.(check bool) "tts CI brackets mean" true (lo <= cold.H.tts_mean && cold.H.tts_mean <= hi)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "exp"
    [ ( "changepoint",
        [ Alcotest.test_case "empty/short" `Quick test_cp_empty_and_short;
          Alcotest.test_case "constant series" `Quick test_cp_constant_series;
          Alcotest.test_case "single step" `Quick test_cp_single_step
        ]
        @ q
            [ prop_cp_recovers_known_breakpoints; prop_cp_deterministic;
              prop_cp_pure_noise_classifies_flat; prop_cp_segments_partition
            ] );
      ( "classify",
        [ Alcotest.test_case "flat" `Quick test_classify_flat;
          Alcotest.test_case "warmup" `Quick test_classify_warmup;
          Alcotest.test_case "slowdown" `Quick test_classify_slowdown;
          Alcotest.test_case "no steady state" `Quick test_classify_no_steady_state;
          Alcotest.test_case "cyclic" `Quick test_classify_cyclic;
          Alcotest.test_case "rejects empty" `Quick test_classify_rejects_empty
        ] );
      ( "gate",
        [ Alcotest.test_case "verdicts" `Quick test_gate_verdicts;
          Alcotest.test_case "pairing kills between-seed variance" `Quick
            test_gate_paired_removes_between_seed_variance;
          Alcotest.test_case "errors" `Quick test_gate_errors
        ] );
      ( "harness",
        [ Alcotest.test_case "derive_seeds" `Quick test_derive_seeds;
          Alcotest.test_case "bin_series" `Quick test_bin_series;
          Alcotest.test_case "matrix + summary" `Quick test_harness_matrix_and_summary
        ] )
    ]
