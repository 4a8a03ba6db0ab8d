(* Macro server model tests: warmup, Jump-Start consumers, seeder packages. *)

module S = Cluster.Server
module MA = Workload.Macro_app

let small_app =
  lazy
    (MA.generate
       { MA.default_params with
         MA.n_funcs = 4_000;
         core_funcs = 400;
         tail_p_max = 5e-3;
         instrs_per_request = 20.0e6
       })

let small_cfg =
  lazy
    { S.default_config with
      S.profile_request_target = 400;
      init_seconds_sequential = 20.;
      init_seconds_parallel = 8.;
      seeder_collect_seconds = 60.;
      traffic_ramp_seconds = 60.;
      cold_decay_seconds = 30.
    }

let test_no_js_reaches_peak () =
  let app = Lazy.force small_app and cfg = Lazy.force small_cfg in
  let s = S.create cfg app S.No_jumpstart in
  S.run s ~until:2_000. ~dt:1.;
  Alcotest.(check bool) "serving" true (S.serving s);
  Alcotest.(check bool) "near peak" true (S.current_rps s > 0.9 *. S.peak_rps s);
  Alcotest.(check bool) "code emitted" true (S.code_bytes s > 1_000_000)

let test_no_serving_before_init () =
  let app = Lazy.force small_app and cfg = Lazy.force small_cfg in
  let s = S.create cfg app S.No_jumpstart in
  S.run s ~until:10. ~dt:1.;
  Alcotest.(check (float 1e-9)) "no rps during init" 0. (S.current_rps s);
  Alcotest.(check bool) "not serving" true (not (S.serving s))

let test_code_growth_monotone () =
  let app = Lazy.force small_app and cfg = Lazy.force small_cfg in
  let s = S.create cfg app S.No_jumpstart in
  let prev = ref 0 in
  let ok = ref true in
  for _ = 1 to 1500 do
    S.step s ~dt:1.;
    if S.code_bytes s < !prev then ok := false;
    prev := S.code_bytes s
  done;
  Alcotest.(check bool) "code size never shrinks" true !ok

let test_consumer_beats_no_js () =
  let app = Lazy.force small_app and cfg = Lazy.force small_cfg in
  let nojs = S.create cfg app S.No_jumpstart in
  S.run nojs ~until:600. ~dt:1.;
  let pkg = S.make_package cfg app ~coverage_target:cfg.S.profile_request_target () in
  let js = S.create ~discovery_seed:9 cfg app (S.Consumer pkg) in
  S.run js ~until:600. ~dt:1.;
  let loss srv =
    Js_util.Stats.Series.capacity_loss (S.rps_series srv) ~peak:(S.peak_rps srv) ~until:600.
  in
  Alcotest.(check bool) "jump-start loses less capacity" true (loss js < loss nojs);
  Alcotest.(check bool) "both lose something" true (loss js > 0.02 && loss nojs < 0.98)

let test_consumer_steady_speedup () =
  let app = Lazy.force small_app and cfg = Lazy.force small_cfg in
  let nojs = S.create cfg app S.No_jumpstart in
  let pkg = S.make_package cfg app ~steady_speedup:1.054 ~coverage_target:cfg.S.profile_request_target () in
  let js = S.create cfg app (S.Consumer pkg) in
  let ratio = S.peak_rps js /. S.peak_rps nojs in
  Alcotest.(check bool) "steady-state gain in the right band" true (ratio > 1.01 && ratio < 1.08)

let test_seeder_produces_package () =
  let app = Lazy.force small_app and cfg = Lazy.force small_cfg in
  let s = S.create cfg app S.Seeder in
  S.run s ~until:3_000. ~dt:1.;
  match S.seeder_package s with
  | None -> Alcotest.fail "seeder produced no package"
  | Some pkg ->
    Alcotest.(check bool) "covers some functions" true
      (Array.exists (fun c -> c) pkg.S.covered);
    Alcotest.(check bool) "positive code" true (pkg.S.opt_bytes > 0);
    Alcotest.(check bool) "not bad" true (not pkg.S.bad)

let test_thin_package_degrades () =
  let app = Lazy.force small_app and cfg = Lazy.force small_cfg in
  let full = S.make_package cfg app ~coverage_target:cfg.S.profile_request_target () in
  let thin = S.make_package cfg app ~quality:0.3 ~coverage_target:cfg.S.profile_request_target () in
  let covered p = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 p.S.covered in
  Alcotest.(check bool) "thin covers fewer" true (covered thin < covered full)

let () =
  Alcotest.run "cluster"
    [ ( "server",
        [ Alcotest.test_case "no-JS reaches peak" `Quick test_no_js_reaches_peak;
          Alcotest.test_case "init blackout" `Quick test_no_serving_before_init;
          Alcotest.test_case "code growth monotone" `Quick test_code_growth_monotone;
          Alcotest.test_case "consumer beats no-JS" `Quick test_consumer_beats_no_js;
          Alcotest.test_case "steady-state speedup" `Quick test_consumer_steady_speedup;
          Alcotest.test_case "seeder package" `Quick test_seeder_produces_package;
          Alcotest.test_case "thin package" `Quick test_thin_package_degrades
        ] )
    ]
