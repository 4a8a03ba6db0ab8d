(* Fleet-scale simulation tests: server model, deployment, reliability. *)

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

let test_bad_package_crashes_consumer () =
  let app = Lazy.force small_app and cfg = Lazy.force small_cfg in
  let pkg = S.make_package cfg app ~bad:true ~coverage_target:cfg.S.profile_request_target () in
  let s = S.create cfg app (S.Consumer pkg) in
  S.run s ~until:600. ~dt:1.;
  Alcotest.(check bool) "crashed" true (S.crashed s = Some S.Bad_package)

let test_thin_package_degrades () =
  let app = Lazy.force small_app and cfg = Lazy.force small_cfg in
  let full = S.make_package cfg app ~coverage_target:cfg.S.profile_request_target () in
  let thin = S.make_package cfg app ~quality:0.3 ~coverage_target:cfg.S.profile_request_target () in
  let covered p = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 p.S.covered in
  Alcotest.(check bool) "thin covers fewer" true (covered thin < covered full)

(* --- fleet --- *)

let fleet_cfg =
  lazy
    { Cluster.Fleet.default_config with
      Cluster.Fleet.n_servers = 40;
      n_buckets = 4;
      seeders_per_bucket = 3;
      server = Lazy.force small_cfg
    }

let test_fleet_healthy_push () =
  let app = Lazy.force small_app in
  let stats =
    Cluster.Fleet.simulate_push (Lazy.force fleet_cfg) app ~seed:1 ~bad_package_rate:0.
      ~thin_profile_rate:0. ~duration:400.
  in
  Alcotest.(check int) "all seeders published" 12 stats.Cluster.Fleet.packages_published;
  Alcotest.(check int) "no crashes" 0 (List.length stats.Cluster.Fleet.crashes);
  Alcotest.(check int) "no fallbacks" 0 stats.Cluster.Fleet.fallbacks;
  Alcotest.(check int) "everyone jump-started" 40 stats.Cluster.Fleet.jump_started;
  Alcotest.(check (array int)) "per-bucket jump-starts (40 servers / 4 buckets)"
    [| 10; 10; 10; 10 |] stats.Cluster.Fleet.bucket_jump_started;
  Alcotest.(check (array int)) "no per-bucket fallbacks" [| 0; 0; 0; 0 |]
    stats.Cluster.Fleet.bucket_fallbacks;
  Alcotest.(check bool) "fleet serves at end" true
    (Js_util.Stats.Series.value_at stats.Cluster.Fleet.fleet_rps 399.
    > 0.5 *. stats.Cluster.Fleet.fleet_peak_rps)

let test_fleet_validation_catches_bad_packages () =
  let app = Lazy.force small_app in
  let cfg = { (Lazy.force fleet_cfg) with Cluster.Fleet.validation_catch_rate = 1.0 } in
  let stats =
    Cluster.Fleet.simulate_push cfg app ~seed:2 ~bad_package_rate:0.5 ~thin_profile_rate:0.
      ~duration:300.
  in
  Alcotest.(check int) "no bad package escapes" 0 stats.Cluster.Fleet.bad_packages_published;
  Alcotest.(check bool) "some were rejected" true (stats.Cluster.Fleet.packages_rejected > 0)

let test_fleet_crash_decay () =
  (* with validation off and a high bad rate, consumers crash, then recover
     through random re-picks: later rounds crash fewer servers *)
  let app = Lazy.force small_app in
  let cfg = { (Lazy.force fleet_cfg) with Cluster.Fleet.validation_catch_rate = 0. } in
  let stats =
    Cluster.Fleet.simulate_push cfg app ~seed:3 ~bad_package_rate:0.4 ~thin_profile_rate:0.
      ~duration:900.
  in
  match stats.Cluster.Fleet.crashes with
  | [] -> Alcotest.fail "expected crashes with unvalidated bad packages"
  | (_, first) :: rest ->
    let last = List.fold_left (fun _ (_, n) -> n) first rest in
    Alcotest.(check bool) "crash rounds shrink" true (last <= first)

let test_fleet_fallback_bounds_damage () =
  (* every package bad and validation off: all consumers must eventually
     fall back rather than crash-loop forever *)
  let app = Lazy.force small_app in
  let cfg =
    { (Lazy.force fleet_cfg) with Cluster.Fleet.validation_catch_rate = 0.; max_boot_attempts = 2 }
  in
  let stats =
    Cluster.Fleet.simulate_push cfg app ~seed:4 ~bad_package_rate:1.0 ~thin_profile_rate:0.
      ~duration:1_200.
  in
  Alcotest.(check bool) "servers fell back" true (stats.Cluster.Fleet.fallbacks > 0);
  let sum = Array.fold_left ( + ) 0 in
  Alcotest.(check int) "per-bucket fallbacks sum to total" stats.Cluster.Fleet.fallbacks
    (sum stats.Cluster.Fleet.bucket_fallbacks);
  Alcotest.(check int) "per-bucket jump-starts sum to total" stats.Cluster.Fleet.jump_started
    (sum stats.Cluster.Fleet.bucket_jump_started);
  Alcotest.(check bool) "fleet recovers" true
    (Js_util.Stats.Series.value_at stats.Cluster.Fleet.fleet_rps 1_199. > 0.)

let test_fleet_thin_profiles_rejected () =
  let app = Lazy.force small_app in
  let stats =
    Cluster.Fleet.simulate_push (Lazy.force fleet_cfg) app ~seed:5 ~bad_package_rate:0.
      ~thin_profile_rate:1.0 ~duration:200.
  in
  (* the coverage gate rejects every thin attempt; retries exhaust *)
  Alcotest.(check int) "nothing published" 0 stats.Cluster.Fleet.packages_published;
  Alcotest.(check bool) "rejections recorded" true (stats.Cluster.Fleet.packages_rejected > 0)

let test_fleet_telemetry_deterministic () =
  (* same seed, same config -> byte-identical telemetry documents *)
  let app = Lazy.force small_app in
  let cfg = { (Lazy.force fleet_cfg) with Cluster.Fleet.validation_catch_rate = 0. } in
  let run () =
    let tel = Js_telemetry.create () in
    let stats =
      Cluster.Fleet.simulate_push ~telemetry:tel cfg app ~seed:11 ~bad_package_rate:0.3
        ~thin_profile_rate:0. ~duration:400.
    in
    (Js_telemetry.to_json tel, tel, stats)
  in
  let json1, _, _ = run () in
  let json2, tel, stats = run () in
  Alcotest.(check string) "identical telemetry" json1 json2;
  (* the gauges must agree with the stats the simulator itself reports *)
  let n = float_of_int cfg.Cluster.Fleet.n_servers in
  Alcotest.(check (option (float 1e-9))) "fallback rate consistent"
    (Some (float_of_int stats.Cluster.Fleet.fallbacks /. n))
    (Js_telemetry.gauge tel "fleet.fallback_rate");
  Alcotest.(check (option (float 1e-9))) "jump-start rate consistent"
    (Some (float_of_int stats.Cluster.Fleet.jump_started /. n))
    (Js_telemetry.gauge tel "fleet.jump_start_rate");
  Alcotest.(check int) "published counter consistent" stats.Cluster.Fleet.packages_published
    (Js_telemetry.counter tel "fleet.packages_published");
  (* every server booted at least once, so boot spans and the histogram are
     populated *)
  Alcotest.(check bool) "boot spans recorded" true
    (List.length (Js_telemetry.spans tel) >= cfg.Cluster.Fleet.n_servers);
  (match Js_telemetry.histograms tel with
  | [ ("fleet.boot_seconds", v) ] ->
    Alcotest.(check bool) "histogram counts boots" true
      (v.Js_telemetry.total >= cfg.Cluster.Fleet.n_servers)
  | _ -> Alcotest.fail "expected exactly the fleet.boot_seconds histogram")

let test_fleet_dist_faults_absorbed () =
  (* ISSUE acceptance: at 30% transient fetch failure plus timeouts, the
     retry/backoff ladder keeps (well over) 99% of servers jump-started *)
  let app = Lazy.force small_app in
  let cfg =
    { (Lazy.force fleet_cfg) with
      Cluster.Fleet.dist =
        { Cluster.Dist_net.default_config with
          Cluster.Dist_net.fetch_fail_rate = 0.3;
          fetch_timeout = 1.0;
          fetch_latency_mean = 0.5
        }
    }
  in
  let stats =
    Cluster.Fleet.simulate_push cfg app ~seed:21 ~bad_package_rate:0. ~thin_profile_rate:0.
      ~duration:200.
  in
  Alcotest.(check bool) ">=99% jump-started" true
    (float_of_int stats.Cluster.Fleet.jump_started
    >= 0.99 *. float_of_int cfg.Cluster.Fleet.n_servers);
  Alcotest.(check int) "no crashes" 0 (List.length stats.Cluster.Fleet.crashes);
  match stats.Cluster.Fleet.dist with
  | None -> Alcotest.fail "active network must report counters"
  | Some c ->
    Alcotest.(check bool) "retries happened" true
      (c.Cluster.Dist_net.failures > 0 && c.Cluster.Dist_net.attempts > c.Cluster.Dist_net.deliveries);
    Alcotest.(check int) "ladder invariant" c.Cluster.Dist_net.attempts
      (c.Cluster.Dist_net.deliveries + c.Cluster.Dist_net.failures + c.Cluster.Dist_net.timeouts
      + c.Cluster.Dist_net.stale_rejects + c.Cluster.Dist_net.empty_probes)

let test_fleet_dist_outage_degrades () =
  (* a fully unreachable network: every server degrades to a no-Jump-Start
     boot, nobody crashes, the fleet still serves *)
  let app = Lazy.force small_app in
  let cfg =
    { (Lazy.force fleet_cfg) with
      Cluster.Fleet.dist =
        { Cluster.Dist_net.default_config with Cluster.Dist_net.fetch_fail_rate = 1.0 }
    }
  in
  let stats =
    Cluster.Fleet.simulate_push cfg app ~seed:22 ~bad_package_rate:0. ~thin_profile_rate:0.
      ~duration:400.
  in
  Alcotest.(check int) "nobody jump-started" 0 stats.Cluster.Fleet.jump_started;
  Alcotest.(check int) "everyone fell back" cfg.Cluster.Fleet.n_servers
    stats.Cluster.Fleet.fallbacks;
  Alcotest.(check int) "no crashes" 0 (List.length stats.Cluster.Fleet.crashes);
  (match stats.Cluster.Fleet.dist with
  | Some c -> Alcotest.(check int) "nothing delivered" 0 c.Cluster.Dist_net.deliveries
  | None -> Alcotest.fail "active network must report counters");
  Alcotest.(check bool) "fleet serves on fallback code" true
    (Js_util.Stats.Series.value_at stats.Cluster.Fleet.fleet_rps 399. > 0.)

let test_fleet_telemetry_crash_accounting () =
  let app = Lazy.force small_app in
  let cfg = { (Lazy.force fleet_cfg) with Cluster.Fleet.validation_catch_rate = 0. } in
  let tel = Js_telemetry.create () in
  let stats =
    Cluster.Fleet.simulate_push ~telemetry:tel cfg app ~seed:3 ~bad_package_rate:0.4
      ~thin_profile_rate:0. ~duration:900.
  in
  let total_crashes = List.fold_left (fun acc (_, n) -> acc + n) 0 stats.Cluster.Fleet.crashes in
  Alcotest.(check int) "crash counter matches stats" total_crashes
    (Js_telemetry.counter tel "fleet.crashes");
  let worst_round =
    List.fold_left (fun acc (_, n) -> max acc n) 0 stats.Cluster.Fleet.crashes
  in
  Alcotest.(check (option (float 1e-9))) "blast radius gauge"
    (Some (float_of_int worst_round))
    (Js_telemetry.gauge tel "fleet.crash_blast_radius")

let () =
  Alcotest.run "cluster"
    [ ( "server",
        [ Alcotest.test_case "no-JS reaches peak" `Quick test_no_js_reaches_peak;
          Alcotest.test_case "init blackout" `Quick test_no_serving_before_init;
          Alcotest.test_case "code growth monotone" `Quick test_code_growth_monotone;
          Alcotest.test_case "consumer beats no-JS" `Quick test_consumer_beats_no_js;
          Alcotest.test_case "steady-state speedup" `Quick test_consumer_steady_speedup;
          Alcotest.test_case "seeder package" `Quick test_seeder_produces_package;
          Alcotest.test_case "bad package crash" `Quick test_bad_package_crashes_consumer;
          Alcotest.test_case "thin package" `Quick test_thin_package_degrades
        ] );
      ( "fleet",
        [ Alcotest.test_case "healthy push" `Quick test_fleet_healthy_push;
          Alcotest.test_case "validation" `Quick test_fleet_validation_catches_bad_packages;
          Alcotest.test_case "crash decay" `Quick test_fleet_crash_decay;
          Alcotest.test_case "fallback bounds damage" `Quick test_fleet_fallback_bounds_damage;
          Alcotest.test_case "thin profiles rejected" `Quick test_fleet_thin_profiles_rejected;
          Alcotest.test_case "telemetry deterministic" `Quick test_fleet_telemetry_deterministic;
          Alcotest.test_case "dist faults absorbed" `Quick test_fleet_dist_faults_absorbed;
          Alcotest.test_case "dist outage degrades" `Quick test_fleet_dist_outage_degrades;
          Alcotest.test_case "telemetry crash accounting" `Quick
            test_fleet_telemetry_crash_accounting
        ] )
    ]
