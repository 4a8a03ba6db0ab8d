(* Unit tests for Js_util: rng, stats, binio, pqueue, par. *)

module Rng = Js_util.Rng
module Stats = Js_util.Stats
module Binio = Js_util.Binio
module Pqueue = Js_util.Pqueue
module Par = Js_util.Par

let check_float = Alcotest.(check (float 1e-9))

(* --- rng --- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_golden () =
  (* pinned first draws of seed 42: every simulator digest rests on these
     SplitMix64 streams, so the generator's representation may change but
     never a value *)
  let r = Rng.create 42 in
  Alcotest.(check int64) "bits64" (-7450291807549245335L) (Rng.bits64 r);
  Alcotest.(check string) "float" "0x1.486da5f92b86cp-3" (Printf.sprintf "%h" (Rng.float r 1.));
  let child = Rng.split r in
  Alcotest.(check int64) "split child" 5860610656741312527L (Rng.bits64 child);
  Alcotest.(check int64) "parent after split" 885919558081284366L (Rng.bits64 r)

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child1 = Rng.split parent in
  let child2 = Rng.split parent in
  Alcotest.(check bool) "children differ" true (Rng.bits64 child1 <> Rng.bits64 child2)

let test_rng_int_bounds () =
  let rng = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_in () =
  let rng = Rng.create 2 in
  for _ = 1 to 500 do
    let v = Rng.int_in rng (-3) 5 in
    Alcotest.(check bool) "in closed range" true (v >= -3 && v <= 5)
  done

let test_rng_bool_extremes () =
  let rng = Rng.create 3 in
  Alcotest.(check bool) "p=0" false (Rng.bool rng 0.);
  Alcotest.(check bool) "p=1" true (Rng.bool rng 1.)

let test_rng_float_mean () =
  let rng = Rng.create 4 in
  let n = 20_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Rng.float rng 1.
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "uniform mean near 0.5" true (abs_float (mean -. 0.5) < 0.02)

let test_rng_exponential_mean () =
  let rng = Rng.create 5 in
  let n = 20_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential rng ~mean:3.
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "exp mean near 3" true (abs_float (mean -. 3.) < 0.2)

let test_rng_zipf_rank0_most_likely () =
  let rng = Rng.create 6 in
  let counts = Array.make 10 0 in
  for _ = 1 to 5_000 do
    let r = Rng.zipf rng ~n:10 ~s:1.0 in
    counts.(r) <- counts.(r) + 1
  done;
  Alcotest.(check bool) "rank 0 beats rank 9" true (counts.(0) > counts.(9))

let test_rng_shuffle_permutation () =
  let rng = Rng.create 8 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_sample_weighted () =
  let rng = Rng.create 9 in
  let counts = Array.make 3 0 in
  for _ = 1 to 9_000 do
    let i = Rng.sample_weighted rng [| 1.; 0.; 8. |] in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero weight never sampled" 0 counts.(1);
  Alcotest.(check bool) "heavy weight dominates" true (counts.(2) > 6 * counts.(0))

(* --- stats --- *)

let test_stats_mean_stddev () =
  check_float "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |]);
  check_float "stddev of constant" 0. (Stats.stddev [| 5.; 5.; 5. |])

let test_stats_percentile () =
  let xs = [| 10.; 20.; 30.; 40.; 50. |] in
  check_float "p0" 10. (Stats.percentile xs 0.);
  check_float "p50" 30. (Stats.percentile xs 50.);
  check_float "p100" 50. (Stats.percentile xs 100.);
  check_float "p25 interpolates" 20. (Stats.percentile xs 25.)

let test_stats_percentile_total_order () =
  (* Float.compare gives a total order: negative zero, infinities and
     subnormals sort correctly (the old polymorphic compare did too, but this
     pins the behavior) *)
  let xs = [| infinity; -0.; 0.; neg_infinity; 1e-310 |] in
  check_float "min" neg_infinity (Stats.percentile xs 0.);
  check_float "max" infinity (Stats.percentile xs 100.);
  check_float "median is the subnormal" 1e-310 (Stats.percentile xs 50.)

let test_stats_percentile_nan_rejected () =
  Alcotest.check_raises "NaN sample raises"
    (Invalid_argument "Stats.percentile: NaN sample") (fun () ->
      ignore (Stats.percentile [| 1.; Float.nan; 3. |] 50.))

let test_stats_empty_and_singleton () =
  Alcotest.check_raises "mean of empty raises" (Invalid_argument "Stats.mean: empty")
    (fun () -> ignore (Stats.mean [||]));
  Alcotest.check_raises "stddev of empty raises" (Invalid_argument "Stats.stddev: empty")
    (fun () -> ignore (Stats.stddev [||]));
  Alcotest.check_raises "percentile of empty raises"
    (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile [||] 50.));
  Alcotest.check_raises "median of empty raises" (Invalid_argument "Stats.percentile: empty")
    (fun () -> ignore (Stats.median [||]));
  (* a single element is every percentile and has zero spread *)
  check_float "singleton mean" 7. (Stats.mean [| 7. |]);
  check_float "singleton stddev" 0. (Stats.stddev [| 7. |]);
  check_float "singleton p0" 7. (Stats.percentile [| 7. |] 0.);
  check_float "singleton p100" 7. (Stats.percentile [| 7. |] 100.);
  check_float "singleton median" 7. (Stats.median [| 7. |])

let test_stats_median () =
  check_float "odd length" 3. (Stats.median [| 5.; 1.; 3. |]);
  check_float "even length interpolates" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  check_float "matches p50" (Stats.percentile [| 9.; 2.; 7.; 4. |] 50.)
    (Stats.median [| 9.; 2.; 7.; 4. |])

let test_stats_ci_bootstrap () =
  let xs = Array.init 40 (fun i -> float_of_int (i mod 7)) in
  let lo, hi = Stats.ci_bootstrap ~seed:11 xs Stats.mean in
  let m = Stats.mean xs in
  Alcotest.(check bool) "CI ordered" true (lo <= hi);
  Alcotest.(check bool) "CI brackets the sample mean" true (lo <= m && m <= hi);
  Alcotest.(check bool) "CI is non-degenerate on spread data" true (hi > lo);
  (* same seed, same interval; different seed, (almost surely) different *)
  let lo', hi' = Stats.ci_bootstrap ~seed:11 xs Stats.mean in
  check_float "deterministic lo" lo lo';
  check_float "deterministic hi" hi hi';
  let wlo, whi = Stats.ci_bootstrap ~seed:11 ~confidence:0.5 xs Stats.mean in
  Alcotest.(check bool) "narrower confidence narrows the interval" true
    (whi -. wlo < hi -. lo);
  (* constant data: the interval collapses onto the point *)
  let clo, chi = Stats.ci_bootstrap ~seed:3 (Array.make 10 4.) Stats.mean in
  check_float "constant lo" 4. clo;
  check_float "constant hi" 4. chi

let test_series_basics () =
  let s = Stats.Series.create () in
  Stats.Series.add s ~time:0. ~value:0.;
  Stats.Series.add s ~time:10. ~value:10.;
  Alcotest.(check int) "length" 2 (Stats.Series.length s);
  check_float "interpolation" 5. (Stats.Series.value_at s 5.);
  check_float "clamp low" 0. (Stats.Series.value_at s (-1.));
  check_float "clamp high" 10. (Stats.Series.value_at s 99.);
  check_float "integral (triangle)" 50. (Stats.Series.integral s ~until:10.)

let test_series_partial_integral () =
  let s = Stats.Series.create () in
  Stats.Series.add s ~time:0. ~value:2.;
  Stats.Series.add s ~time:10. ~value:2.;
  check_float "half window" 10. (Stats.Series.integral s ~until:5.)

let test_series_integral_flat_tail () =
  (* regression: [until] beyond the last sample extends the curve flat at the
     final value instead of silently truncating the window *)
  let s = Stats.Series.create () in
  Stats.Series.add s ~time:0. ~value:2.;
  Stats.Series.add s ~time:10. ~value:4.;
  check_float "sampled range" 30. (Stats.Series.integral s ~until:10.);
  check_float "flat tail past last sample" 50. (Stats.Series.integral s ~until:15.);
  (* an infinite window integrates the sampled range only (digest call sites) *)
  check_float "infinite window = sampled range" 30.
    (Stats.Series.integral s ~until:infinity);
  (* a single sample held flat *)
  let one = Stats.Series.create () in
  Stats.Series.add one ~time:5. ~value:3.;
  check_float "single sample flat tail" 6. (Stats.Series.integral one ~until:7.)

let test_series_out_of_order () =
  let s = Stats.Series.create () in
  Stats.Series.add s ~time:5. ~value:1.;
  Alcotest.check_raises "rejects out-of-order"
    (Invalid_argument "Series.add: samples must be added in time order") (fun () ->
      Stats.Series.add s ~time:4. ~value:1.)

let test_series_capacity_loss () =
  (* constant half capacity -> 50% loss *)
  let s = Stats.Series.create () in
  Stats.Series.add s ~time:0. ~value:5.;
  Stats.Series.add s ~time:100. ~value:5.;
  check_float "loss" 0.5 (Stats.Series.capacity_loss s ~peak:10. ~until:100.)

let test_series_resample () =
  let s = Stats.Series.create () in
  Stats.Series.add s ~time:0. ~value:0.;
  Stats.Series.add s ~time:4. ~value:8.;
  let samples = Stats.Series.resample s ~step:2. ~until:4. in
  Alcotest.(check int) "3 samples" 3 (Array.length samples);
  check_float "midpoint" 4. (snd samples.(1))

let test_histogram () =
  let h = Stats.Histogram.create ~lo:0. ~hi:10. ~buckets:10 in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 9.5; 100. ];
  Alcotest.(check int) "count" 4 (Stats.Histogram.count h);
  let counts = Stats.Histogram.bucket_counts h in
  Alcotest.(check int) "overflow clamps to last bucket" 2 counts.(9)

let test_histogram_merge () =
  let a = Stats.Histogram.create ~lo:0. ~hi:10. ~buckets:10 in
  let b = Stats.Histogram.create ~lo:0. ~hi:10. ~buckets:10 in
  let whole = Stats.Histogram.create ~lo:0. ~hi:10. ~buckets:10 in
  List.iteri
    (fun i x ->
      Stats.Histogram.add (if i mod 2 = 0 then a else b) x;
      Stats.Histogram.add whole x)
    [ 0.5; 1.5; 1.6; 9.5; 100.; 3.3 ];
  Stats.Histogram.merge ~into:a b;
  Alcotest.(check int) "merged count" (Stats.Histogram.count whole) (Stats.Histogram.count a);
  Alcotest.(check (array int)) "merged buckets == concatenated stream"
    (Stats.Histogram.bucket_counts whole) (Stats.Histogram.bucket_counts a);
  (* src is left untouched *)
  Alcotest.(check int) "src count unchanged" 3 (Stats.Histogram.count b);
  let narrow = Stats.Histogram.create ~lo:0. ~hi:5. ~buckets:10 in
  Alcotest.check_raises "shape mismatch" (Invalid_argument "Histogram.merge: shape mismatch")
    (fun () -> Stats.Histogram.merge ~into:a narrow)

(* --- quantile sketch --- *)

let test_quantile_relative_accuracy () =
  let q = Stats.Quantile.create () in
  for i = 1 to 10_000 do
    Stats.Quantile.add q (float_of_int i)
  done;
  Alcotest.(check int) "count" 10_000 (Stats.Quantile.count q);
  List.iter
    (fun p ->
      (* exact answer at rank floor(p * (n-1)) of the sorted stream *)
      let exact = float_of_int (1 + int_of_float (p *. 9999.)) in
      let est = Stats.Quantile.quantile q p in
      let rel = Float.abs (est -. exact) /. exact in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f within 2*accuracy (rel=%.4f)" (100. *. p) rel)
        true
        (rel <= 2. *. Stats.Quantile.accuracy q))
    [ 0.; 0.5; 0.9; 0.95; 0.99; 1.0 ]

let test_quantile_merge_exact () =
  (* merging sketches must equal sketching the concatenated stream *)
  let a = Stats.Quantile.create () and b = Stats.Quantile.create () in
  let whole = Stats.Quantile.create () in
  let rng = Rng.create 9 in
  for i = 0 to 1_999 do
    let x = Rng.exponential rng ~mean:25. in
    Stats.Quantile.add (if i mod 2 = 0 then a else b) x;
    Stats.Quantile.add whole x
  done;
  Stats.Quantile.merge a b;
  Alcotest.(check int) "merged count" (Stats.Quantile.count whole) (Stats.Quantile.count a);
  List.iter
    (fun p ->
      check_float
        (Printf.sprintf "p%.0f identical" (100. *. p))
        (Stats.Quantile.quantile whole p) (Stats.Quantile.quantile a p))
    [ 0.01; 0.25; 0.5; 0.75; 0.95; 0.99 ]

let test_quantile_zero_bucket () =
  let q = Stats.Quantile.create () in
  List.iter (Stats.Quantile.add q) [ 0.; 0.; 0.; 1e-12; 5. ];
  check_float "p50 is zero" 0. (Stats.Quantile.p50 q);
  check_float "p0 is zero" 0. (Stats.Quantile.quantile q 0.);
  Alcotest.(check bool) "max positive" true (Stats.Quantile.quantile q 1.0 > 4.)

let test_quantile_errors () =
  let q = Stats.Quantile.create () in
  Alcotest.check_raises "empty" (Invalid_argument "Stats.Quantile.quantile: empty") (fun () ->
      ignore (Stats.Quantile.quantile q 0.5));
  Alcotest.check_raises "negative" (Invalid_argument "Stats.Quantile.add: negative or NaN")
    (fun () -> Stats.Quantile.add q (-1.));
  Alcotest.check_raises "bad accuracy" (Invalid_argument "Stats.Quantile.create: accuracy")
    (fun () -> ignore (Stats.Quantile.create ~accuracy:1.5 ()));
  let other = Stats.Quantile.create ~accuracy:0.05 () in
  Alcotest.check_raises "mismatched merge"
    (Invalid_argument "Stats.Quantile.merge: mismatched accuracy") (fun () ->
      Stats.Quantile.merge q other)

let test_quantile_range_edges () =
  (* +infinity has no bucket (its index converts to 0 on amd64, which would
     read back as 0.99): it is rejected and leaves the sketch as it was *)
  let q = Stats.Quantile.create () in
  List.iter (Stats.Quantile.add q) [ 5.; 6.; 7. ];
  Alcotest.check_raises "infinity" (Invalid_argument "Stats.Quantile.add: infinite") (fun () ->
      Stats.Quantile.add q infinity);
  Alcotest.(check int) "count unchanged" 3 (Stats.Quantile.count q);
  let p0 = Stats.Quantile.quantile q 0. in
  Alcotest.(check bool) (Printf.sprintf "p0 is the smallest sample (%g)" p0) true
    (Float.abs (p0 -. 5.) <= 5. *. Stats.Quantile.accuracy q);
  (* the extremes of the finite range round-trip within the accuracy, and a
     sketch spanning them keeps a bounded bucket window *)
  let wide = Stats.Quantile.create () in
  List.iter (Stats.Quantile.add wide) [ 1e-9; 1e300 ];
  let near x est = Float.abs (est -. x) <= x *. Stats.Quantile.accuracy wide in
  Alcotest.(check bool) "min_value round-trips" true (near 1e-9 (Stats.Quantile.quantile wide 0.));
  Alcotest.(check bool) "1e300 round-trips" true (near 1e300 (Stats.Quantile.quantile wide 1.));
  let words = Obj.reachable_words (Obj.repr wide) in
  Alcotest.(check bool) (Printf.sprintf "bounded window (%d words)" words) true (words < 80_000)

(* --- binio --- *)

let test_binio_scalars () =
  let w = Binio.Writer.create () in
  Binio.Writer.varint w 0;
  Binio.Writer.varint w 300;
  Binio.Writer.svarint w (-7);
  Binio.Writer.f64 w 3.25;
  Binio.Writer.bool w true;
  Binio.Writer.string w "hello";
  Binio.Writer.i64 w (-1L);
  let r = Binio.Reader.of_string (Binio.Writer.contents w) in
  Alcotest.(check int) "varint 0" 0 (Binio.Reader.varint r);
  Alcotest.(check int) "varint 300" 300 (Binio.Reader.varint r);
  Alcotest.(check int) "svarint -7" (-7) (Binio.Reader.svarint r);
  check_float "f64" 3.25 (Binio.Reader.f64 r);
  Alcotest.(check bool) "bool" true (Binio.Reader.bool r);
  Alcotest.(check string) "string" "hello" (Binio.Reader.string r);
  Alcotest.(check int64) "i64" (-1L) (Binio.Reader.i64 r);
  Binio.Reader.expect_end r

let test_binio_collections () =
  let w = Binio.Writer.create () in
  Binio.Writer.list w (fun x -> Binio.Writer.varint w x) [ 1; 2; 3 ];
  Binio.Writer.array w (fun s -> Binio.Writer.string w s) [| "a"; "b" |];
  Binio.Writer.option w (fun x -> Binio.Writer.varint w x) (Some 9);
  Binio.Writer.option w (fun x -> Binio.Writer.varint w x) None;
  let r = Binio.Reader.of_string (Binio.Writer.contents w) in
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Binio.Reader.list r Binio.Reader.varint);
  Alcotest.(check (array string)) "array" [| "a"; "b" |] (Binio.Reader.array r Binio.Reader.string);
  Alcotest.(check (option int)) "some" (Some 9) (Binio.Reader.option r Binio.Reader.varint);
  Alcotest.(check (option int)) "none" None (Binio.Reader.option r Binio.Reader.varint)

let test_binio_truncated () =
  let w = Binio.Writer.create () in
  Binio.Writer.string w "world";
  let data = Binio.Writer.contents w in
  let truncated = String.sub data 0 (String.length data - 2) in
  let r = Binio.Reader.of_string truncated in
  match Binio.Reader.string r with
  | exception Binio.Corrupt _ -> ()
  | s -> Alcotest.failf "expected Corrupt, got %S" s

let test_binio_frame_roundtrip () =
  let payload = "some payload bytes" in
  let framed = Binio.frame ~magic:"TEST" ~version:3 payload in
  Alcotest.(check string) "roundtrip" payload
    (Binio.unframe ~magic:"TEST" ~expected_version:3 framed)

let expect_corrupt name f =
  match f () with
  | exception Binio.Corrupt _ -> ()
  | _ -> Alcotest.failf "%s: expected Corrupt" name

let test_binio_frame_corruption () =
  let framed = Binio.frame ~magic:"TEST" ~version:1 "payload" in
  (* flip a payload byte: CRC must catch it *)
  let b = Bytes.of_string framed in
  Bytes.set b 10 (Char.chr (Char.code (Bytes.get b 10) lxor 1));
  expect_corrupt "crc" (fun () ->
      Binio.unframe ~magic:"TEST" ~expected_version:1 (Bytes.to_string b));
  expect_corrupt "magic" (fun () -> Binio.unframe ~magic:"XXXX" ~expected_version:1 framed);
  expect_corrupt "version" (fun () -> Binio.unframe ~magic:"TEST" ~expected_version:2 framed);
  expect_corrupt "short" (fun () -> Binio.unframe ~magic:"TEST" ~expected_version:1 "TE")

let test_binio_frame_every_truncation () =
  (* cutting a frame at ANY byte boundary must yield Corrupt, never an
     Invalid_argument / out-of-bounds escaping the decode path *)
  let payload = String.init 100 (fun i -> Char.chr (i * 37 mod 256)) in
  let framed = Binio.frame ~magic:"TEST" ~version:1 payload in
  for cut = 0 to String.length framed - 1 do
    let truncated = String.sub framed 0 cut in
    match Binio.unframe ~magic:"TEST" ~expected_version:1 truncated with
    | exception Binio.Corrupt _ -> ()
    | exception e ->
      Alcotest.failf "cut at %d: expected Corrupt, got %s" cut (Printexc.to_string e)
    | _ -> Alcotest.failf "cut at %d: truncated frame accepted" cut
  done

let test_binio_varint_overflow () =
  (* 10 continuation bytes push chunks past bit 62: the decoder must reject
     rather than silently wrap into a negative length *)
  let too_long = String.make 10 '\xff' ^ "\x01" in
  expect_corrupt "varint too long" (fun () ->
      Binio.Reader.varint (Binio.Reader.of_string too_long));
  (* 9 bytes whose top chunk overflows the sign bit *)
  let overflow = String.make 8 '\xff' ^ "\x7f" in
  expect_corrupt "varint overflow" (fun () ->
      Binio.Reader.varint (Binio.Reader.of_string overflow));
  (* max_int must still round-trip *)
  let w = Binio.Writer.create () in
  Binio.Writer.varint w max_int;
  Alcotest.(check int) "max_int roundtrip" max_int
    (Binio.Reader.varint (Binio.Reader.of_string (Binio.Writer.contents w)));
  (* a wrapped negative length must not reach String.sub in [string] *)
  let w = Binio.Writer.create () in
  Binio.Writer.varint w max_int;
  Binio.Writer.u8 w (Char.code 'x');
  Binio.Writer.u8 w (Char.code 'x');
  expect_corrupt "huge length guarded" (fun () ->
      Binio.Reader.string (Binio.Reader.of_string (Binio.Writer.contents w)))

let test_crc32_known () =
  (* standard check value for "123456789" *)
  Alcotest.(check int64) "crc32 vector" 0xCBF43926L
    (Int64.of_int32 (Binio.crc32 "123456789") |> Int64.logand 0xFFFFFFFFL)

(* --- pqueue --- *)

let test_pqueue_order_and_ties () =
  let q = Pqueue.create ~dummy:"" () in
  Alcotest.(check bool) "empty min is infinity" true
    (Pqueue.min_priority q = infinity);
  List.iter
    (fun (p, v) -> Pqueue.push q ~priority:p v)
    [ (3., "c"); (1., "a1"); (2., "b"); (1., "a2"); (1., "a3") ];
  Alcotest.(check int) "length" 5 (Pqueue.length q);
  check_float "min priority" 1. (Pqueue.min_priority q);
  let drained = List.init 5 (fun _ -> Pqueue.pop_exn q) in
  Alcotest.(check (list string)) "sorted, fifo on ties"
    [ "a1"; "a2"; "a3"; "b"; "c" ] drained;
  Alcotest.(check bool) "drained" true (Pqueue.is_empty q)

let test_pqueue_errors () =
  let q = Pqueue.create ~dummy:0 () in
  Alcotest.check_raises "NaN priority"
    (Invalid_argument "Pqueue.push: NaN priority") (fun () ->
      Pqueue.push q ~priority:Float.nan 1);
  Alcotest.check_raises "pop of empty"
    (Invalid_argument "Pqueue.pop_exn: empty") (fun () ->
      ignore (Pqueue.pop_exn q))

let test_pqueue_pool_reuse () =
  (* steady-state churn must not grow the slot pool: push/pop at a bounded
     live count reuses the same slots *)
  let q = Pqueue.create ~dummy:(-1) () in
  for i = 0 to 99 do
    Pqueue.push q ~priority:(float_of_int i) i
  done;
  let cap = Pqueue.capacity q in
  let t = ref 100. in
  for _ = 1 to 10_000 do
    let v = Pqueue.pop_exn q in
    Alcotest.(check bool) "payload is live, not dummy" true (v >= 0);
    Pqueue.push q ~priority:!t v;
    t := !t +. 1.
  done;
  Alcotest.(check int) "capacity unchanged under churn" cap (Pqueue.capacity q);
  Alcotest.(check int) "length preserved" 100 (Pqueue.length q)

let test_pqueue_popped_slots_cleared () =
  let q = Pqueue.create ~dummy:(ref (-1)) () in
  let finalised = ref 0 in
  for i = 0 to 31 do
    let v = ref i in
    Gc.finalise (fun _ -> incr finalised) v;
    Pqueue.push q ~priority:(float_of_int i) v
  done;
  for _ = 1 to 32 do
    ignore (Pqueue.pop_exn q)
  done;
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check int)
    (Printf.sprintf "popped payloads reclaimed (%d/32)" !finalised)
    32 !finalised

(* --- par --- *)

let test_fork_join_covers_all_indices () =
  (* every slice index runs exactly once, slice 0 on the calling domain *)
  let domains = 4 in
  let hits = Array.make domains 0 in
  let caller = Domain.self () in
  let slice0_domain = ref None in
  Par.fork_join ~domains (fun d ->
      hits.(d) <- hits.(d) + 1;
      if d = 0 then slice0_domain := Some (Domain.self ()));
  Alcotest.(check (array int)) "each slice ran once" (Array.make domains 1) hits;
  Alcotest.(check bool) "slice 0 on the calling domain" true
    (!slice0_domain = Some caller)

let test_fork_join_single_domain_spawns_nothing () =
  (* domains <= 1 must run inline: observable as slice 0 on the caller *)
  let ran = ref 0 in
  let caller = Domain.self () in
  let on_caller = ref false in
  Par.fork_join ~domains:1 (fun d ->
      Alcotest.(check int) "only slice 0" 0 d;
      incr ran;
      on_caller := Domain.self () = caller);
  Alcotest.(check int) "ran once" 1 !ran;
  Alcotest.(check bool) "inline" true !on_caller

let test_fork_join_is_a_barrier () =
  (* writes made by worker domains are visible after the join: the fork-join
     edge is the only synchronization the epoch protocol uses *)
  let domains = 3 in
  let cells = Array.make (domains * 100) 0 in
  Par.fork_join ~domains (fun d ->
      for i = d * 100 to (d * 100) + 99 do
        cells.(i) <- i + 1
      done);
  Alcotest.(check int) "all worker writes visible"
    (Array.length cells) (Array.fold_left (fun a x -> a + min x 1) 0 cells)

let test_fork_join_reraises_after_joining_all () =
  (* a raising slice must not leak unjoined domains, and every other slice
     still completes *)
  let done_ = Array.make 3 false in
  (match
     Par.fork_join ~domains:3 (fun d ->
         if d = 1 then failwith "slice 1 boom";
         done_.(d) <- true)
   with
  | () -> Alcotest.fail "expected the slice failure to re-raise"
  | exception Failure msg -> Alcotest.(check string) "worker error surfaces" "slice 1 boom" msg);
  Alcotest.(check bool) "other slices completed" true (done_.(0) && done_.(2))

let test_mailbox_fifo_and_counters () =
  let mb = Par.Mailbox.create () in
  Alcotest.(check bool) "fresh is empty" true (Par.Mailbox.is_empty mb);
  Alcotest.(check (list int)) "fresh drains nothing" [] (Par.Mailbox.drain mb);
  List.iter (Par.Mailbox.post mb) [ 1; 2; 3 ];
  Alcotest.(check bool) "non-empty" false (Par.Mailbox.is_empty mb);
  Alcotest.(check (list int)) "drains oldest first" [ 1; 2; 3 ] (Par.Mailbox.drain mb);
  Alcotest.(check bool) "drained empty" true (Par.Mailbox.is_empty mb);
  List.iter (Par.Mailbox.post mb) [ 4; 5 ];
  Alcotest.(check (list int)) "second round drains only new posts" [ 4; 5 ]
    (Par.Mailbox.drain mb);
  Alcotest.(check int) "posted counts across drains" 5 (Par.Mailbox.posted mb)

let test_mailbox_cross_domain_round () =
  (* the intended usage: worker domains post during a fork-join round, the
     barrier owner drains after the join and sees every message *)
  let domains = 3 in
  let boxes = Array.init domains (fun _ -> Par.Mailbox.create ()) in
  Par.fork_join ~domains (fun d ->
      for i = 0 to 9 do
        Par.Mailbox.post boxes.(d) ((d * 10) + i)
      done);
  let all = Array.to_list boxes |> List.concat_map Par.Mailbox.drain in
  Alcotest.(check int) "every message delivered" (domains * 10) (List.length all);
  Alcotest.(check (list int)) "per-box order preserved"
    (List.init (domains * 10) (fun i -> i))
    all

(* --- backoff --- *)

let test_backoff_raw_schedule () =
  let cfg = { Js_util.Backoff.default with Js_util.Backoff.base_delay = 0.5; multiplier = 2.0; max_delay = 30. } in
  check_float "attempt 0" 0.5 (Js_util.Backoff.raw_delay cfg ~attempt:0);
  check_float "attempt 1" 1.0 (Js_util.Backoff.raw_delay cfg ~attempt:1);
  check_float "attempt 2" 2.0 (Js_util.Backoff.raw_delay cfg ~attempt:2);
  check_float "attempt 5" 16.0 (Js_util.Backoff.raw_delay cfg ~attempt:5);
  (* 0.5 * 2^7 = 64 caps at 30 *)
  check_float "cap" 30.0 (Js_util.Backoff.raw_delay cfg ~attempt:7);
  Alcotest.check_raises "negative attempt"
    (Invalid_argument "Backoff.raw_delay: negative attempt") (fun () ->
      ignore (Js_util.Backoff.raw_delay cfg ~attempt:(-1)))

let test_backoff_jitter () =
  let rng = Rng.create 99 in
  let cfg = { Js_util.Backoff.default with Js_util.Backoff.jitter = 0.1 } in
  for attempt = 0 to 6 do
    let raw = Js_util.Backoff.raw_delay cfg ~attempt in
    let d = Js_util.Backoff.delay cfg rng ~attempt in
    Alcotest.(check bool) "jitter only inflates" true (d >= raw);
    Alcotest.(check bool) "jitter bounded at 10%" true (d <= raw *. 1.1 +. 1e-9)
  done

let test_backoff_zero_jitter_draws_nothing () =
  let cfg = { Js_util.Backoff.default with Js_util.Backoff.jitter = 0. } in
  let rng = Rng.create 3 and witness = Rng.create 3 in
  let d = Js_util.Backoff.delay cfg rng ~attempt:2 in
  check_float "deterministic delay" (Js_util.Backoff.raw_delay cfg ~attempt:2) d;
  Alcotest.(check int64) "rng untouched" (Rng.bits64 witness) (Rng.bits64 rng)

let () =
  Alcotest.run "util"
    [ ( "rng",
        [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "golden draws" `Quick test_rng_golden;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in;
          Alcotest.test_case "bool extremes" `Quick test_rng_bool_extremes;
          Alcotest.test_case "uniform mean" `Quick test_rng_float_mean;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "zipf skew" `Quick test_rng_zipf_rank0_most_likely;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "weighted sampling" `Quick test_rng_sample_weighted
        ] );
      ( "stats",
        [ Alcotest.test_case "mean/stddev" `Quick test_stats_mean_stddev;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile total order" `Quick
            test_stats_percentile_total_order;
          Alcotest.test_case "percentile rejects NaN" `Quick
            test_stats_percentile_nan_rejected;
          Alcotest.test_case "series integral flat tail" `Quick
            test_series_integral_flat_tail;
          Alcotest.test_case "empty/singleton edges" `Quick test_stats_empty_and_singleton;
          Alcotest.test_case "median" `Quick test_stats_median;
          Alcotest.test_case "bootstrap CI" `Quick test_stats_ci_bootstrap;
          Alcotest.test_case "series basics" `Quick test_series_basics;
          Alcotest.test_case "series partial integral" `Quick test_series_partial_integral;
          Alcotest.test_case "series time order" `Quick test_series_out_of_order;
          Alcotest.test_case "capacity loss" `Quick test_series_capacity_loss;
          Alcotest.test_case "resample" `Quick test_series_resample;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
          Alcotest.test_case "quantile relative accuracy" `Quick
            test_quantile_relative_accuracy;
          Alcotest.test_case "quantile merge is exact" `Quick test_quantile_merge_exact;
          Alcotest.test_case "quantile zero bucket" `Quick test_quantile_zero_bucket;
          Alcotest.test_case "quantile errors" `Quick test_quantile_errors;
          Alcotest.test_case "quantile range edges" `Quick test_quantile_range_edges
        ] );
      ( "binio",
        [ Alcotest.test_case "scalars" `Quick test_binio_scalars;
          Alcotest.test_case "collections" `Quick test_binio_collections;
          Alcotest.test_case "truncation" `Quick test_binio_truncated;
          Alcotest.test_case "frame roundtrip" `Quick test_binio_frame_roundtrip;
          Alcotest.test_case "frame corruption" `Quick test_binio_frame_corruption;
          Alcotest.test_case "frame truncation at every boundary" `Quick
            test_binio_frame_every_truncation;
          Alcotest.test_case "varint overflow" `Quick test_binio_varint_overflow;
          Alcotest.test_case "crc32 vector" `Quick test_crc32_known
        ] );
      ( "par",
        [ Alcotest.test_case "fork_join covers all indices" `Quick
            test_fork_join_covers_all_indices;
          Alcotest.test_case "single domain runs inline" `Quick
            test_fork_join_single_domain_spawns_nothing;
          Alcotest.test_case "join is a memory barrier" `Quick test_fork_join_is_a_barrier;
          Alcotest.test_case "re-raises after joining all" `Quick
            test_fork_join_reraises_after_joining_all;
          Alcotest.test_case "mailbox fifo + counters" `Quick test_mailbox_fifo_and_counters;
          Alcotest.test_case "mailbox cross-domain round" `Quick
            test_mailbox_cross_domain_round
        ] );
      ( "backoff",
        [ Alcotest.test_case "raw schedule + cap" `Quick test_backoff_raw_schedule;
          Alcotest.test_case "jitter bounds" `Quick test_backoff_jitter;
          Alcotest.test_case "zero jitter draws nothing" `Quick
            test_backoff_zero_jitter_draws_nothing
        ] );
      ( "pqueue",
        [ Alcotest.test_case "flat: order + ties" `Quick test_pqueue_order_and_ties;
          Alcotest.test_case "flat: errors" `Quick test_pqueue_errors;
          Alcotest.test_case "flat: slot-pool reuse" `Quick test_pqueue_pool_reuse;
          Alcotest.test_case "flat: popped slots cleared" `Quick
            test_pqueue_popped_slots_cleared
        ] )
    ]
