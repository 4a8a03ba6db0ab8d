(* Macro server model tests: warmup, Jump-Start consumers, packages, and pins
   of the model's exact values and of the C2 seeding draws. *)

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
  let pkg = S.make_package cfg app () in
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
  let pkg = S.make_package cfg app () in
  let js = S.create cfg app (S.Consumer pkg) in
  let ratio = S.peak_rps js /. S.peak_rps nojs in
  Alcotest.(check bool) "steady-state gain in the right band" true (ratio > 1.01 && ratio < 1.08)

let test_thin_package_degrades () =
  let app = Lazy.force small_app and cfg = Lazy.force small_cfg in
  let full = S.make_package cfg app () in
  let thin = S.make_package cfg app ~quality:0.3 () in
  let covered p = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 p.S.covered in
  Alcotest.(check bool) "thin covers fewer" true (covered thin < covered full)

(* --- pins: exact values of the macro model --- *)

(* Every float the figures read, at full precision: the rps, latency and code
   series (Figs. 1, 2 and 4), the boot span and the steady capacity. *)
let render_run srv =
  let b = Buffer.create 65536 in
  let series name s =
    Buffer.add_string b name;
    Array.iter
      (fun (t, v) -> Buffer.add_string b (Printf.sprintf " %.17g:%.17g" t v))
      (Js_util.Stats.Series.to_array s);
    Buffer.add_char b '\n'
  in
  Buffer.add_string b
    (Printf.sprintf "boot %.17g peak %.17g\n" (S.boot_seconds srv) (S.peak_rps srv));
  series "rps" (S.rps_series srv);
  series "latency" (S.latency_series srv);
  series "code" (S.code_series srv);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_pinned_runs () =
  let app = Lazy.force small_app and cfg = Lazy.force small_cfg in
  let nojs = S.create cfg app S.No_jumpstart in
  S.run nojs ~until:1_500. ~dt:1.;
  let pkg = S.make_package cfg app () in
  let js = S.create ~discovery_seed:9 cfg app (S.Consumer pkg) in
  S.run js ~until:1_500. ~dt:1.;
  Alcotest.(check string)
    "no-Jump-Start run" "69b50a4d34f4d2e2ff55c50ecf7585f2" (render_run nojs);
  Alcotest.(check string) "consumer run" "fd65699d48a9e12b9e63c7da9525a829" (render_run js)

(* The C2 seeding gates at a fixed seed: every fault, validation and retry
   draw, observed through the outcome counts, each bucket's bad flags and
   the generator's next output.  At a thin rate of 0.8 some seeders run out
   of retries. *)
let test_pinned_seeding () =
  let app = Lazy.force small_app in
  let config =
    { Cluster.Fleet.default_config with
      Cluster.Fleet.server = Lazy.force small_cfg;
      validation_catch_rate = 0.5
    }
  in
  let pin ~thin_profile_rate ~counts ~flags ~next =
    let rng = Js_util.Rng.create 2024 in
    let s = Cluster.Fleet.run_seeders config app rng ~bad_package_rate:0.3 ~thin_profile_rate in
    Alcotest.(check (list int)) "published, rejected, bad published" counts
      [ s.Cluster.Fleet.published; s.Cluster.Fleet.rejected; s.Cluster.Fleet.bad_published ];
    Alcotest.(check string) "bad flags per bucket" flags
      (Array.to_list s.Cluster.Fleet.per_bucket
      |> List.map (fun pkgs ->
             String.concat "" (List.map (fun p -> if p.S.bad then "B" else "g") pkgs))
      |> String.concat "/");
    Alcotest.(check string) "next draw" next (Int64.to_string (Js_util.Rng.bits64 rng))
  in
  pin ~thin_profile_rate:0.2 ~counts:[ 30; 14; 8 ]
    ~flags:"ggB/BgB/ggg/BgB/ggg/Bgg/ggg/ggg/BBg/ggg" ~next:"7048388820756056325";
  pin ~thin_profile_rate:0.8 ~counts:[ 14; 107; 4 ] ~flags:"B/g/g/g/g/g/BgB/gg/Bg/g"
    ~next:"-7903206860996035205"

let () =
  Alcotest.run "cluster"
    [ ( "server",
        [ Alcotest.test_case "no-JS reaches peak" `Quick test_no_js_reaches_peak;
          Alcotest.test_case "init blackout" `Quick test_no_serving_before_init;
          Alcotest.test_case "code growth monotone" `Quick test_code_growth_monotone;
          Alcotest.test_case "consumer beats no-JS" `Quick test_consumer_beats_no_js;
          Alcotest.test_case "steady-state speedup" `Quick test_consumer_steady_speedup;
          Alcotest.test_case "thin package" `Quick test_thin_package_degrades
        ] );
      ( "pins",
        [ Alcotest.test_case "no-JS and consumer runs" `Quick test_pinned_runs;
          Alcotest.test_case "seeding draws" `Quick test_pinned_seeding
        ] )
    ]
