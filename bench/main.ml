(* Benchmark harness: regenerates every figure of the paper's evaluation
   (there are no numeric tables) and runs the ablations and the
   machine-readable perf/push/scale/churn/warmup benches.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- fig4b   # one experiment
     dune exec bench/main.exe -- list    # available ids

   Paper-vs-measured values are printed side by side; we reproduce shapes
   and rough factors, not the authors' absolute hardware numbers (see
   DESIGN.md §4 and EXPERIMENTS.md). *)

module S = Cluster.Server
module SS = Steady_state
module Series = Js_util.Stats.Series

let section title =
  Printf.printf "\n=== %s ===\n%!" title

let sub title = Printf.printf "--- %s ---\n%!" title

(* One macro application shared by the warmup figures. *)
let macro_app = lazy (Workload.Macro_app.generate Workload.Macro_app.default_params)

let run_server ?discovery_seed cfg app role ~until =
  let server = S.create ?discovery_seed cfg app role in
  S.run server ~until ~dt:1.0;
  server

(* ---------------------------------------------------------------- fig1 -- *)

let fig1 () =
  section "Figure 1: JITed code size over time (no Jump-Start)";
  Printf.printf "paper: ~500 MB total; A (profiling stops) ~4-6 min; B->C relocation;\n";
  Printf.printf "       C (optimized live, ~90%% perf) ~10 min; D (JIT ceases) ~25 min\n\n";
  let app = Lazy.force macro_app in
  let server = run_server S.default_config app S.No_jumpstart ~until:1800. in
  let code = S.code_series server in
  Printf.printf "%8s %12s %14s\n" "min" "code (MB)" "rps/peak";
  let rps = S.rps_series server and peak = S.peak_rps server in
  for m = 0 to 30 do
    let t = float_of_int (m * 60) in
    Printf.printf "%8d %12.0f %14.2f\n" m
      (Series.value_at code t /. 1e6)
      (Series.value_at rps t /. peak)
  done;
  Printf.printf "\nfinal code size: %.0f MB (paper: ~500 MB)\n"
    (float_of_int (S.code_bytes server) /. 1e6)

(* ---------------------------------------------------------------- fig2 -- *)

let fig2 () =
  section "Figure 2: server capacity loss due to restart and warmup";
  Printf.printf "paper: RPS ramps over ~25 min back to peak; area above = capacity loss\n\n";
  let app = Lazy.force macro_app in
  let server = run_server S.default_config app S.No_jumpstart ~until:1500. in
  let rps = S.rps_series server and peak = S.peak_rps server in
  Printf.printf "%8s %16s\n" "min" "normalized RPS";
  for m = 0 to 25 do
    let t = float_of_int (m * 60) in
    Printf.printf "%8d %16.2f\n" m (Series.value_at rps t /. peak)
  done;
  Printf.printf "\ncapacity loss over 25 min: %.1f%%\n"
    (100. *. Series.capacity_loss rps ~peak ~until:1500.)

(* ---------------------------------------------------------------- fig4 -- *)

let warmup_pair () =
  let app = Lazy.force macro_app in
  let cfg = S.default_config in
  let nojs = run_server ~discovery_seed:11 cfg app S.No_jumpstart ~until:600. in
  let pkg = S.make_package cfg app () in
  let js = run_server ~discovery_seed:12 cfg app (S.Consumer pkg) ~until:600. in
  (nojs, js)

(* Boot spans of the warmup pair, through the telemetry layer (so the bench
   output exercises the same exporter the fleet uses). *)
let print_boot_telemetry nojs js =
  let t = Js_telemetry.create () in
  Js_telemetry.add_span t "no_jumpstart.boot" ~start:0. ~dur:(S.boot_seconds nojs);
  Js_telemetry.add_span t "jump_start.boot" ~start:0. ~dur:(S.boot_seconds js);
  Printf.printf "\ntelemetry boot spans:";
  List.iter (fun (name, _, dur) -> Printf.printf " %s=%.1fs" name dur) (Js_telemetry.spans t);
  print_newline ()

let fig4a () =
  section "Figure 4a: average wall time per request over uptime";
  Printf.printf "paper: no-JS starts ~3500 ms, ~3x higher than JS before 250 s;\n";
  Printf.printf "       JS converges near steady state by ~150-300 s\n\n";
  let nojs, js = warmup_pair () in
  Printf.printf "%8s %18s %18s %8s\n" "sec" "no-JS (ms)" "Jump-Start (ms)" "ratio";
  List.iter
    (fun t ->
      let l_nojs = 1000. *. Series.value_at (S.latency_series nojs) t in
      let l_js = 1000. *. Series.value_at (S.latency_series js) t in
      Printf.printf "%8.0f %18.0f %18.0f %8s\n" t l_nojs l_js
        (if l_js > 0. then Printf.sprintf "%.1fx" (l_nojs /. l_js) else "-"))
    [ 100.; 150.; 200.; 250.; 300.; 350.; 400.; 450.; 500.; 550.; 600. ];
  print_boot_telemetry nojs js

let fig4b () =
  section "Figure 4b: normalized RPS over uptime; 10-minute capacity loss";
  Printf.printf "paper: capacity loss 78.3%% (no-JS) vs 35.3%% (JS) -> 54.9%% reduction\n\n";
  let nojs, js = warmup_pair () in
  Printf.printf "%8s %12s %12s\n" "sec" "no-JS" "Jump-Start";
  List.iter
    (fun t ->
      Printf.printf "%8.0f %12.2f %12.2f\n" t
        (Series.value_at (S.rps_series nojs) t /. S.peak_rps nojs)
        (Series.value_at (S.rps_series js) t /. S.peak_rps js))
    [ 50.; 100.; 150.; 200.; 250.; 300.; 350.; 400.; 450.; 500.; 550.; 600. ];
  let loss srv = Series.capacity_loss (S.rps_series srv) ~peak:(S.peak_rps srv) ~until:600. in
  let l_nojs = loss nojs and l_js = loss js in
  Printf.printf "\n%-34s %10s %10s\n" "" "paper" "measured";
  Printf.printf "%-34s %9.1f%% %9.1f%%\n" "capacity loss, no Jump-Start" 78.3 (100. *. l_nojs);
  Printf.printf "%-34s %9.1f%% %9.1f%%\n" "capacity loss, Jump-Start" 35.3 (100. *. l_js);
  Printf.printf "%-34s %9.1f%% %9.1f%%\n" "relative reduction" 54.9
    (100. *. (1. -. (l_js /. l_nojs)));
  print_boot_telemetry nojs js

(* ------------------------------------------------------------- lifespan -- *)

(* §II-B: with continuous deployment every ~75 minutes, "each HHVM server
   was spending about 13% of its life span until optimized code was produced
   and decent performance was reached, and 32% of its life span until
   reaching peak performance". *)
let lifespan () =
  section "Lifespan under continuous deployment (paper §II-B)";
  Printf.printf "push cadence 75 min; paper: 13%% of life until optimized code,
";
  Printf.printf "32%% until peak performance (no Jump-Start)

";
  let app = Lazy.force macro_app in
  let lifespan_s = 75. *. 60. in
  let measure role =
    let server = run_server S.default_config app role ~until:lifespan_s in
    let rps = S.rps_series server and peak = S.peak_rps server in
    let first_time pred =
      let rec scan t = if t > lifespan_s then lifespan_s else if pred t then t else scan (t +. 5.) in
      scan 0.
    in
    let t_optimized = first_time (fun t -> Series.value_at rps t >= 0.85 *. peak) in
    let t_peak = first_time (fun t -> Series.value_at rps t >= 0.97 *. peak) in
    (t_optimized /. lifespan_s, t_peak /. lifespan_s)
  in
  let nojs_opt, nojs_peak = measure S.No_jumpstart in
  let pkg = S.make_package S.default_config app () in
  let js_opt, js_peak = measure (S.Consumer pkg) in
  Printf.printf "%-44s %8s %9s\n" "" "paper" "measured";
  Printf.printf "%-44s %7.0f%% %8.1f%%\n" "no-JS: life until optimized code (~point C)" 13.
    (100. *. nojs_opt);
  Printf.printf "%-44s %7.0f%% %8.1f%%\n" "no-JS: life until peak performance" 32.
    (100. *. nojs_peak);
  Printf.printf "%-44s %8s %8.1f%%\n" "Jump-Start: life until optimized code" "-"
    (100. *. js_opt);
  Printf.printf "%-44s %8s %8.1f%%\n" "Jump-Start: life until peak performance" "-"
    (100. *. js_peak);
  (* §IV-A timing constraint: the seeder pipeline must fit inside the ~30
     minute C2 phase, which is why only optimized-code profile data is
     collected.  A seeder warms up like a no-Jump-Start server until its
     optimized code is live, then collects for 300 s. *)
  let seeder_s = (nojs_opt *. lifespan_s) +. 300. in
  let fits = seeder_s <= 30. *. 60. in
  Printf.printf "\nseeder pipeline (profile + instrumented run + serialize): %.1f min\n"
    (seeder_s /. 60.);
  Printf.printf "fits the ~30 min C2 phase (paper \xc2\xa7IV-A): %b\n" fits;
  if not fits then begin
    prerr_endline "bench lifespan: the seeder pipeline does not fit the C2 phase";
    exit 1
  end

(* -------------------------------------------------------------- fig5/6 -- *)

let metric_paper =
  [ (SS.Branch, 6.8); (SS.L1I, 6.2); (SS.ITLB, 20.8); (SS.L1D, 1.4); (SS.DTLB, 12.1); (SS.LLC, 3.5) ]

let fig5 () =
  section "Figure 5: steady-state speedup and micro-architectural miss reductions";
  Printf.printf "running the micro pipeline (profile -> package -> consumer replay)...\n\n";
  match SS.run SS.default_config SS.fig5_variants with
  | [ baseline; js ] ->
    Printf.printf "%-26s %10s %10s\n" "metric" "paper" "measured";
    Printf.printf "%-26s %9.1f%% %9.1f%%\n" "RPS speedup" 5.4
      (100. *. (SS.speedup ~baseline js -. 1.));
    List.iter
      (fun (metric, paper) ->
        Printf.printf "%-26s %9.1f%% %9.1f%%\n"
          (SS.metric_name metric ^ " reduction")
          paper
          (100. *. SS.miss_reduction ~baseline ~metric js))
      metric_paper;
    Printf.printf "\n(absolute rates, no-JS -> JS)\n";
    List.iter
      (fun (metric, _) ->
        Printf.printf "  %-14s %8.4f -> %8.4f\n" (SS.metric_name metric)
          (SS.miss_rate_of baseline metric) (SS.miss_rate_of js metric))
      metric_paper
  | _ -> failwith "fig5: unexpected variant count"

let fig6 () =
  section "Figure 6: per-optimization speedup over Jump-Start without §V opts";
  Printf.printf "running 5 consumer variants over one shared package...\n\n";
  match SS.run SS.default_config SS.fig6_variants with
  | baseline :: rest ->
    let paper = [ ("no-jumpstart", -0.2); ("bb-layout", 3.8); ("func-sorting", 0.75); ("prop-reorder", 0.8) ] in
    Printf.printf "%-20s %10s %10s\n" "variant" "paper" "measured";
    List.iter
      (fun m ->
        let expected = List.assoc m.SS.m_name paper in
        Printf.printf "%-20s %+9.2f%% %+9.2f%%\n" m.SS.m_name expected
          (100. *. (SS.speedup ~baseline m -. 1.)))
      rest;
    Printf.printf "\nbaseline cycles/request: %.0f\n" baseline.SS.cycles_per_request
  | [] -> failwith "fig6: no measurements"

(* ----------------------------------------------------------- ablations -- *)

let ablation_layout () =
  section "Ablation: basic-block layout strategy (measured Vasm weights)";
  (* request seeds 1 (profile) and 2 (instrumented run); seed 0 makes the
     replay's cache warmup and measurement seeds 3 and 4 *)
  let config = { SS.default_config with SS.seed = 0 } in
  let app = Workload.Codegen.generate config.SS.spec in
  let repo = app.Workload.Codegen.repo in
  let mix = Workload.Request.mix app ~region:0 ~bucket:0 in
  let counters = Jit_profile.Counters.create repo in
  let layouts = Mh_runtime.Class_layout.build repo ~reorder:false ~hotness:(fun _ _ -> 0) in
  let engine =
    Interp.Engine.create ~probes:(Jit_profile.Collector.probes counters) repo
      (Mh_runtime.Heap.create repo layouts)
  in
  SS.drive app mix ~seed:1 ~n:config.SS.profile_requests engine;
  let base_cfg = { Jit.Compiler.default_config with Jit.Compiler.min_entries = 5 } in
  let vfuncs = Jit.Compiler.lower_all repo counters base_cfg in
  let measured = Jit.Vasm_profile.create () in
  let probes =
    Jit.Context.probes repo
      ~lookup:(fun f -> List.assoc_opt f vfuncs)
      (Jit.Vasm_profile.handler measured)
  in
  let engine2 = Interp.Engine.create ~probes repo (Mh_runtime.Heap.create repo layouts) in
  SS.drive app mix ~seed:2 ~n:config.SS.optimized_requests engine2;
  Printf.printf "%-16s %16s %14s\n" "strategy" "cycles/request" "vs exttsp";
  let measure bb_layout =
    let cfg = { base_cfg with Jit.Compiler.bb_layout } in
    let compiled = Jit.Compiler.finish repo counters cfg ~measured:(Some measured) vfuncs in
    let snapshot, _ =
      SS.replay config app mix compiled (fun probes ->
          Interp.Engine.create ~probes repo (Mh_runtime.Heap.create repo layouts))
    in
    snapshot.Machine.Hierarchy.cycles /. float_of_int config.SS.measure_requests
  in
  let exttsp = measure Jit.Compiler.Exttsp in
  let source = measure Jit.Compiler.Source_order in
  let ph = measure Jit.Compiler.Pettis_hansen in
  Printf.printf "%-16s %16.0f %13s\n" "exttsp" exttsp "-";
  Printf.printf "%-16s %16.0f %+12.2f%%\n" "pettis-hansen" ph (100. *. ((ph /. exttsp) -. 1.));
  Printf.printf "%-16s %16.0f %+12.2f%%\n" "source-order" source
    (100. *. ((source /. exttsp) -. 1.))

let fleet_app =
  lazy
    (Workload.Macro_app.generate
       { Workload.Macro_app.default_params with
         Workload.Macro_app.n_funcs = 6_000;
         core_funcs = 600;
         instrs_per_request = 30.0e6
       })

let fleet_base_cfg =
  lazy
    { Cluster.Fleet.default_config with
      Cluster.Fleet.n_servers = 120;
      n_buckets = 6;
      server =
        { S.default_config with
          S.profile_request_target = 600;
          init_seconds_sequential = 30.;
          init_seconds_parallel = 12.;
          traffic_ramp_seconds = 90.;
          cold_decay_seconds = 40.
        }
    }

(* --seed N overrides the base seed of whichever experiments run (each keeps
   its own default so plain invocations reproduce the committed artifacts);
   --seeds N sets the replicate count of the matrix benches (warmup, and the
   paired significance gates of push).  Shared across all subcommands so any
   artifact can be re-run with a fresh seed from the CLI. *)
let seed_override = ref None
let seeds_override = ref None

let bench_seed default = match !seed_override with Some s -> s | None -> default
let bench_seeds default = match !seeds_override with Some n -> n | None -> default

(* The §VI reliability ablations run on the discrete-event push simulator
   with the whole fleet restarting at once (drain_cap = n_servers, a C3
   phase) at 0.5 rps per server.  Seeding, fetches and crashes draw only from
   the network stream, so the outcome counters do not depend on the offered
   load; light load keeps each cell well under a second. *)
let ablation_cfg ~duration fleet =
  { Js_sim.Region.default_config with
    Js_sim.Region.fleet;
    arrival =
      { Js_sim.Arrival.default_config with
        Js_sim.Arrival.base_rps = 0.5 *. float_of_int fleet.Cluster.Fleet.n_servers
      };
    push_at = 0.;
    drain_cap = fleet.Cluster.Fleet.n_servers;
    duration
  }

let ablation_failed name claim =
  Printf.eprintf "bench %s: %s\n" name claim;
  exit 1

(* One ablation cell with telemetry on.  The blast radius is the most servers
   crashed in one 30 s restart round, counted from the run's [Server_crashed]
   events, so the event ring must have kept every one of them. *)
let ablation_run cfg ~seed =
  let tel = Js_telemetry.create ~capacity:(1 lsl 16) () in
  let stats = Js_sim.Region.run ~telemetry:tel cfg (Lazy.force fleet_app) ~seed in
  if Js_telemetry.dropped_events tel > 0 then
    ablation_failed "ablation" "telemetry event ring overflowed";
  let rounds = Hashtbl.create 16 in
  List.iter
    (function
      | t, Js_telemetry.Server_crashed _ ->
        let round = Float.round (t /. 30.) in
        Hashtbl.replace rounds round
          (1 + Option.value ~default:0 (Hashtbl.find_opt rounds round))
      | _ -> ())
    (Js_telemetry.events tel);
  (stats, tel, Hashtbl.fold (fun _ n acc -> max acc n) rounds 0)

(* Lowest estimated fleet capacity over the run's last two crash delays.  A
   crash-looping fleet goes fully dark once per cycle (boot plus crash delay,
   shorter than the window), so the floor is 0 while it still crash-loops;
   the capacity at one instant depends on where the cycle's phase falls. *)
let capacity_floor cfg stats =
  let from =
    cfg.Js_sim.Region.duration
    -. (2. *. cfg.Js_sim.Region.fleet.Cluster.Fleet.server.S.crash_delay_seconds)
  in
  Array.fold_left
    (fun acc (t, v) -> if t >= from then Float.min acc v else acc)
    infinity
    (Series.to_array stats.Js_sim.Region.capacity_series)

let ablation_seeders () =
  section "Ablation: randomized multiple seeders bound the crash blast radius (§VI-A.2)";
  Printf.printf
    "exactly ONE bad package slips into each bucket; more independent seeder\n\
     packages mean each random pick is less likely to hit it and crashed\n\
     servers recover faster on re-pick\n\n";
  Printf.printf "%10s %12s %12s %12s %14s\n" "seeders" "crashes" "fallbacks" "jumpstarted"
    "blast radius";
  let runs =
    List.map
      (fun n ->
        let fleet =
          { (Lazy.force fleet_base_cfg) with
            Cluster.Fleet.seeders_per_bucket = n;
            validation_catch_rate = 0.;
            max_boot_attempts = 6
          }
        in
        let cfg =
          { (ablation_cfg ~duration:900. fleet) with Js_sim.Region.bad_per_bucket = Some 1 }
        in
        let stats, _, blast = ablation_run cfg ~seed:(bench_seed 1000) in
        Printf.printf "%10d %12d %12d %12d %14d\n" n stats.Js_sim.Region.crashes
          stats.Js_sim.Region.fallbacks stats.Js_sim.Region.jump_started blast;
        stats)
      [ 1; 2; 4; 8 ]
  in
  let rec falling = function
    | a :: (b :: _ as rest) -> b.Js_sim.Region.crashes < a.Js_sim.Region.crashes && falling rest
    | [ _ ] | [] -> true
  in
  if not (falling runs) then
    ablation_failed "ablation-seeders" "crashes do not fall strictly with more seeders";
  if (List.hd runs).Js_sim.Region.fallbacks <> (Lazy.force fleet_base_cfg).Cluster.Fleet.n_servers
  then ablation_failed "ablation-seeders" "with 1 seeder per bucket not every server fell back"

let ablation_validation () =
  section "Ablation: seeder self-validation (§VI-A.1)";
  Printf.printf "bad-package rate 30%%, 3 seeders per bucket, varying catch rate\n\n";
  Printf.printf "%12s %14s %12s %12s\n" "catch rate" "bad published" "crashes" "rejected";
  List.iter
    (fun rate ->
      let fleet = { (Lazy.force fleet_base_cfg) with Cluster.Fleet.validation_catch_rate = rate } in
      let cfg = { (ablation_cfg ~duration:600. fleet) with Js_sim.Region.bad_package_rate = 0.3 } in
      let stats, _, _ = ablation_run cfg ~seed:(bench_seed 77) in
      Printf.printf "%12.2f %14d %12d %12d\n" rate stats.Js_sim.Region.bad_packages_published
        stats.Js_sim.Region.crashes stats.Js_sim.Region.packages_rejected;
      if
        rate = 1.0
        && (stats.Js_sim.Region.bad_packages_published > 0 || stats.Js_sim.Region.crashes > 0)
      then ablation_failed "ablation-validation" "catch rate 1.0 let a bad package through")
    [ 0.0; 0.5; 0.95; 1.0 ]

let ablation_fallback () =
  section "Ablation: automatic no-Jump-Start fallback (§VI-A.3)";
  Printf.printf
    "every package bad, validation off: with fallback the fleet recovers\n\
     (capacity floor: lowest estimated fleet rps over the last 240 s)\n\n";
  Printf.printf "%10s %12s %12s %16s\n" "fallback" "crashes" "fallbacks" "capacity floor";
  List.iter
    (fun fallback ->
      let fleet =
        { (Lazy.force fleet_base_cfg) with
          Cluster.Fleet.validation_catch_rate = 0.;
          fallback_enabled = fallback;
          max_boot_attempts = 2
        }
      in
      let cfg =
        { (ablation_cfg ~duration:1_500. fleet) with Js_sim.Region.bad_package_rate = 1.0 }
      in
      let stats, tel, blast = ablation_run cfg ~seed:(bench_seed 5) in
      let capacity = capacity_floor cfg stats in
      Printf.printf "%10b %12d %12d %16.0f\n" fallback stats.Js_sim.Region.crashes
        stats.Js_sim.Region.fallbacks capacity;
      Printf.printf "           telemetry: fallbacks=%d crashes=%d blast_radius=%d\n"
        (Js_telemetry.counter tel "sim.fallbacks")
        (Js_telemetry.counter tel "sim.crashes")
        blast;
      List.iter
        (fun (reason, n) -> Printf.printf "           telemetry: fallback reason %dx %S\n" n reason)
        (Js_telemetry.fallback_reasons tel);
      if fallback then begin
        if stats.Js_sim.Region.fallbacks <> fleet.Cluster.Fleet.n_servers || capacity <= 0. then
          ablation_failed "ablation-fallback" "with fallback on the fleet did not recover"
      end
      else if capacity > 0. then
        ablation_failed "ablation-fallback" "with fallback off the fleet kept capacity")
    [ true; false ]

(* ------------------------------------------------------------------ perf -- *)

(* Machine-readable perf tracking (see EXPERIMENTS.md): measures interpreter
   throughput on the macro-app workload on the compiled loop ("cached")
   vs the reference loop ("uncached"); same seed, so the two runs must agree
   byte-for-byte on results, echo output, step counts and the tier-1
   profile.  Plus fixed-iteration micro-benches of the core algorithms and
   each product probe path's overhead over the plain loop, all written to
   BENCH_interp.json.  [--quick] shrinks every loop to smoke-test size for
   CI. *)

let quick_mode = ref false

(* --out PATH overrides the default artifact filename of whichever
   JSON-writing bench runs (perf, dist, push).  Meant for single-experiment
   invocations; with several JSON benches in one run the last write wins. *)
let out_path = ref None

let artifact_path ~default = match !out_path with Some p -> p | None -> default

let write_artifact ~tag ~default json =
  let out = artifact_path ~default in
  if not (Js_telemetry.Json.parses json) then begin
    Printf.eprintf "%s: generated %s is not valid JSON\n" tag out;
    exit 1
  end;
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote %s (valid per the telemetry JSON parser)\n" out

(* The checkout's commit, suffixed "-dirty" when the tree differs from it;
   "unknown" outside a git work tree. *)
let commit () =
  let ic =
    Unix.open_process_in "git describe --always --dirty --abbrev=40 --exclude='*' 2>/dev/null"
  in
  let line = try input_line ic with End_of_file -> "" in
  match Unix.close_process_in ic with Unix.WEXITED 0 when line <> "" -> line | _ -> "unknown"

(* What a timed artifact records about its run, as (key, JSON value) pairs:
   the commit, the UTC date, the CPUs the process may use and the
   compiler. *)
let provenance_fields () =
  let t = Unix.gmtime (Unix.time ()) in
  [ ("commit", Printf.sprintf "%S" (commit ()));
    ( "date",
      Printf.sprintf "\"%04d-%02d-%02dT%02d:%02d:%02dZ\"" (t.tm_year + 1900) (t.tm_mon + 1)
        t.tm_mday t.tm_hour t.tm_min t.tm_sec );
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Printf.sprintf "%S" Sys.ocaml_version)
  ]

(* Profiling overhead on the seeder's harness: [requests] requests of the
   default app's seeder mix (region 0, bucket 0), served plain and under
   each product probe path.  A round serves the same request stream on a
   fresh engine per path (fresh counters too, as a seeding starts) in
   lockstep: each request runs on every engine in turn, so a slow stretch
   of the host hits every path alike.  A round's ratio is a path's summed
   request time over the plain engine's.  The translations come from the
   app's own tier-1 profile, lowered as the seeder lowers them
   (instrumented) and compiled as the consumer compiles them. *)
(* ROADMAP "Instrumented translations": every probe path within 1.5x of the
   plain run *)
let overhead_bound = 1.5

let probe_overhead ~requests ~rounds =
  let module JS = Jumpstart in
  let app = Workload.Codegen.generate Workload.App_spec.default in
  let repo = app.Workload.Codegen.repo in
  let layouts = Mh_runtime.Class_layout.build repo ~reorder:false ~hotness:(fun _ _ -> 0) in
  let mix = Workload.Request.mix app ~region:0 ~bucket:0 in
  let engine probes = Interp.Engine.create ?probes repo (Mh_runtime.Heap.create repo layouts) in
  let serve e =
    let rng = Js_util.Rng.create (bench_seed 11) in
    for _ = 1 to requests do
      ignore (Workload.Request.invoke e app (Workload.Request.sample rng mix))
    done
  in
  let counters = Jit_profile.Counters.create repo in
  serve (engine (Some (Jit_profile.Collector.probes counters)));
  let config = JS.Consumer.compile_config JS.Options.default in
  let vfuncs =
    Jit.Compiler.lower_all repo counters { config with Jit.Compiler.mode = Vasm.Lower.Instrumented }
  in
  let lookup fid = List.assoc_opt fid vfuncs in
  let measured = Jit.Vasm_profile.create () in
  serve (engine (Some (Jit.Context.probes repo ~lookup (Jit.Vasm_profile.handler measured))));
  let compiled = Jit.Compiler.compile repo counters config ~measured:(Some measured) in
  let calls = ref 0 in
  let sink =
    {
      Jit.Trace_adapter.fetch = (fun ~addr:_ ~size:_ -> incr calls);
      branch = (fun ~pc:_ ~target:_ ~taken:_ -> incr calls);
      load = (fun ~addr:_ -> incr calls);
      store = (fun ~addr:_ -> incr calls);
    }
  in
  let paths =
    [ ("collector", fun () -> Jit_profile.Collector.probes (Jit_profile.Counters.create repo));
      ( "context_vasm_profile",
        fun () ->
          Jit.Context.probes repo ~lookup (Jit.Vasm_profile.handler (Jit.Vasm_profile.create ())) );
      ( "context_trace_adapter",
        fun () ->
          Jit.Context.probes repo ~lookup:(Jit.Compiler.lookup compiled)
            (Jit.Trace_adapter.handler ~cache:compiled.Jit.Compiler.cache sink) )
    ]
  in
  let ratios = List.map (fun (name, _) -> (name, Array.make rounds 0.)) paths in
  for r = 0 to rounds - 1 do
    (* plain first, then the paths in order *)
    let engines = Array.of_list (engine None :: List.map (fun (_, probes) -> engine (Some (probes ()))) paths) in
    let rngs = Array.map (fun _ -> Js_util.Rng.create (bench_seed 11)) engines in
    let spent = Array.make (Array.length engines) 0. in
    Gc.full_major ();
    for _ = 1 to requests do
      Array.iteri
        (fun i e ->
          let req = Workload.Request.sample rngs.(i) mix in
          let t0 = Unix.gettimeofday () in
          ignore (Workload.Request.invoke e app req);
          spent.(i) <- spent.(i) +. (Unix.gettimeofday () -. t0))
        engines
    done;
    List.iteri (fun i (_, a) -> a.(r) <- spent.(i + 1) /. spent.(0)) ratios
  done;
  ratios

let perf () =
  section "perf: interpreter throughput + core-algorithm micro-benches";
  let quick = !quick_mode in
  let requests = if quick then 40 else 1000 in
  let app = Workload.Codegen.generate Workload.App_spec.default in
  let repo = app.Workload.Codegen.repo in
  let layouts = Mh_runtime.Class_layout.build repo ~reorder:false ~hotness:(fun _ _ -> 0) in
  let mix = Workload.Request.uniform_mix app in
  let run ~inline_cache n =
    let engine =
      Interp.Engine.create ~fuel:max_int ~inline_cache repo (Mh_runtime.Heap.create repo layouts)
    in
    let rng = Js_util.Rng.create (bench_seed 7) in
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      ignore (Workload.Request.invoke engine app (Workload.Request.sample rng mix))
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let words = Gc.minor_words () -. w0 in
    (engine, dt, words)
  in
  (* untimed A/B equivalence check: same seed, translated vs reference
     loop.  Per-request results, echo output, step counts and the full
     serialized tier-1 profile fold into one digest, so probe streams must
     agree byte-for-byte, not just the final answers, and nothing big is
     retained. *)
  let fingerprint ~inline_cache n =
    let counters = Jit_profile.Counters.create repo in
    let engine =
      Interp.Engine.create ~fuel:max_int ~inline_cache
        ~probes:(Jit_profile.Collector.probes counters)
        repo (Mh_runtime.Heap.create repo layouts)
    in
    let rng = Js_util.Rng.create (bench_seed 7) in
    let d = ref "" in
    for _ = 1 to n do
      let v = Workload.Request.invoke engine app (Workload.Request.sample rng mix) in
      d := Digest.string (!d ^ Hhbc.Value.to_string v)
    done;
    let w = Js_util.Binio.Writer.create () in
    Jit_profile.Counters.serialize counters w;
    Digest.string
      (!d ^ Interp.Engine.output engine
      ^ string_of_int (Interp.Engine.steps engine)
      ^ Js_util.Binio.Writer.contents w)
  in
  let check_n = min requests 200 in
  let identical = fingerprint ~inline_cache:true check_n = fingerprint ~inline_cache:false check_n in
  (* warm both configurations, then interleave two timed runs of each and
     keep the faster (less noise-sensitive than a single pass) *)
  ignore (run ~inline_cache:true (max 1 (requests / 8)));
  ignore (run ~inline_cache:false (max 1 (requests / 8)));
  let eng_c, dt_c1, words_c = run ~inline_cache:true requests in
  let eng_u, dt_u1, words_u = run ~inline_cache:false requests in
  let _, dt_c2, _ = run ~inline_cache:true requests in
  let _, dt_u2, _ = run ~inline_cache:false requests in
  let dt_c = min dt_c1 dt_c2 and dt_u = min dt_u1 dt_u2 in
  let steps_c = Interp.Engine.steps eng_c and steps_u = Interp.Engine.steps eng_u in
  let identical = identical && steps_c = steps_u in
  let sps_c = float_of_int steps_c /. dt_c and sps_u = float_of_int steps_u /. dt_u in
  let speedup = sps_c /. sps_u in
  let s = Interp.Engine.cache_stats eng_c in
  let rate hit miss = if hit + miss = 0 then 0. else float_of_int hit /. float_of_int (hit + miss) in
  let meth_rate =
    rate (s.Interp.Engine.meth_hit_mono + s.Interp.Engine.meth_hit_poly) s.Interp.Engine.meth_miss
  in
  let prop_rate =
    rate (s.Interp.Engine.prop_hit_mono + s.Interp.Engine.prop_hit_poly) s.Interp.Engine.prop_miss
  in
  (* flush the engine's local counters into a telemetry sink, and export the
     sink's view — the same bridge the fleet simulation uses *)
  let tel = Js_telemetry.create () in
  Js_telemetry.import_counters tel (Interp.Engine.cache_counters eng_c);
  Printf.printf "macro-app workload: %d requests, %d steps\n" requests steps_c;
  Printf.printf "  cached:   %10.2fM steps/s  (%.3fs, %.0f minor words)\n" (sps_c /. 1e6) dt_c
    words_c;
  Printf.printf "  uncached: %10.2fM steps/s  (%.3fs, %.0f minor words)\n" (sps_u /. 1e6) dt_u
    words_u;
  Printf.printf "  speedup:  %10.2fx   identical results: %b\n" speedup identical;
  Printf.printf "  method cache hit rate:   %.4f (mono %d / poly %d / miss %d)\n" meth_rate
    s.Interp.Engine.meth_hit_mono s.Interp.Engine.meth_hit_poly s.Interp.Engine.meth_miss;
  Printf.printf "  property cache hit rate: %.4f (mono %d / poly %d / miss %d)\n" prop_rate
    s.Interp.Engine.prop_hit_mono s.Interp.Engine.prop_hit_poly s.Interp.Engine.prop_miss;
  (* core-algorithm micro-benches, fixed iteration counts *)
  let time_ops n f =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    let dt = Unix.gettimeofday () -. t0 in
    float_of_int n /. dt
  in
  let rng = Js_util.Rng.create 99 in
  let cfg64 =
    Layout.Cfg.create
      ~blocks:
        (Array.init 64 (fun i ->
             { Layout.Cfg.id = i; size = 16 + (i mod 7 * 8); weight = Js_util.Rng.float rng 100. }))
      ~arcs:
        (Array.init 128 (fun _ ->
             { Layout.Cfg.src = Js_util.Rng.int rng 64; dst = Js_util.Rng.int rng 64;
               weight = Js_util.Rng.float rng 50.
             }))
      ~entry:0
  in
  let nodes =
    Array.init 2000 (fun i -> { Layout.C3.id = i; size = 256; samples = Js_util.Rng.float rng 1000. })
  in
  let call_arcs =
    Array.init 6000 (fun _ ->
        { Layout.C3.caller = Js_util.Rng.int rng 2000; callee = Js_util.Rng.int rng 2000;
          weight = Js_util.Rng.float rng 10.
        })
  in
  let fib_repo =
    Minihack.Compile.compile_source ~path:"fib.mh"
      "function fib($n) { if ($n < 2) { return $n; } return fib($n - 1) + fib($n - 2); }\n\
       function main() { return fib(15); }"
  in
  let fib_layouts = Mh_runtime.Class_layout.build fib_repo ~reorder:false ~hotness:(fun _ _ -> 0) in
  let fib_steps = ref 0 in
  let tiny = Workload.Codegen.generate Workload.App_spec.tiny in
  let counters = Jit_profile.Counters.create tiny.Workload.Codegen.repo in
  let cengine =
    Interp.Engine.create
      ~probes:(Jit_profile.Collector.probes counters)
      tiny.Workload.Codegen.repo
      (Mh_runtime.Heap.create tiny.Workload.Codegen.repo
         (Mh_runtime.Class_layout.build tiny.Workload.Codegen.repo ~reorder:false
            ~hotness:(fun _ _ -> 0)))
  in
  let crng = Js_util.Rng.create 3 in
  let cmix = Workload.Request.uniform_mix tiny in
  for _ = 1 to if quick then 10 else 50 do
    ignore (Workload.Request.invoke cengine tiny (Workload.Request.sample crng cmix))
  done;
  let n_interp = if quick then 20 else 200 in
  let interp_ops =
    time_ops n_interp (fun () ->
        let engine = Interp.Engine.create fib_repo (Mh_runtime.Heap.create fib_repo fib_layouts) in
        let v = Interp.Engine.run_main engine in
        fib_steps := Interp.Engine.steps engine;
        v)
  in
  let interp_sps = interp_ops *. float_of_int !fib_steps in
  (* Ext-TSP: the median of [exttsp_reps] timed repetitions, with their range *)
  let exttsp_reps = 5 and exttsp_ops_per_rep = if quick then 20 else 200 in
  let exttsp =
    Array.init exttsp_reps (fun _ -> time_ops exttsp_ops_per_rep (fun () -> Layout.Exttsp.layout cfg64))
  in
  Array.sort compare exttsp;
  let exttsp_ops = exttsp.(exttsp_reps / 2) in
  let c3_ops =
    time_ops (if quick then 5 else 50) (fun () -> Layout.C3.order ~nodes ~arcs:call_arcs ())
  in
  let binio_ops =
    time_ops
      (if quick then 200 else 2000)
      (fun () ->
        let w = Js_util.Binio.Writer.create () in
        Jit_profile.Counters.serialize counters w;
        Jit_profile.Counters.deserialize tiny.Workload.Codegen.repo
          (Js_util.Binio.Reader.of_string (Js_util.Binio.Writer.contents w)))
  in
  Printf.printf
    "micro: interp-fib %.2fM steps/s | exttsp %.0f ops/s (median of %d, %.0f-%.0f) | c3 %.1f ops/s \
     | binio %.0f ops/s\n"
    (interp_sps /. 1e6) exttsp_ops exttsp_reps exttsp.(0) exttsp.(exttsp_reps - 1) c3_ops binio_ops;
  let overhead_requests = if quick then 60 else 600 and overhead_rounds = if quick then 3 else 5 in
  let overhead =
    List.map
      (fun (name, a) ->
        let a = Array.copy a in
        Array.sort compare a;
        (name, Js_util.Stats.median a, a.(0), a.(Array.length a - 1)))
      (probe_overhead ~requests:overhead_requests ~rounds:overhead_rounds)
  in
  List.iter
    (fun (name, med, lo, hi) ->
      Printf.printf "probe overhead %-22s %.3fx plain (median of %d, %.3f-%.3f)\n" name med
        overhead_rounds lo hi)
    overhead;
  (* emit BENCH_interp.json *)
  let b = Buffer.create 2048 in
  let fld ?(last = false) key fmt v =
    Printf.bprintf b "    %S: " key;
    Printf.bprintf b fmt v;
    Buffer.add_string b (if last then "\n" else ",\n")
  in
  Printf.bprintf b "{\n";
  Printf.bprintf b "  \"schema\": \"jumpstart-bench-interp/4\",\n";
  Printf.bprintf b "  \"quick\": %b,\n" quick;
  Printf.bprintf b "  \"provenance\": {\n";
  let provenance = provenance_fields () in
  List.iteri
    (fun i (k, v) -> fld ~last:(i = List.length provenance - 1) k "%s" v)
    provenance;
  Printf.bprintf b "  },\n";
  Printf.bprintf b "  \"workload\": {\n";
  fld "requests" "%d" requests;
  fld "steps" "%d" steps_c;
  Printf.bprintf b "    \"cached\": { \"steps_per_sec\": %.0f, \"seconds\": %.6f, \"minor_words\": %.0f },\n"
    sps_c dt_c words_c;
  Printf.bprintf b
    "    \"uncached\": { \"steps_per_sec\": %.0f, \"seconds\": %.6f, \"minor_words\": %.0f },\n" sps_u
    dt_u words_u;
  fld "speedup" "%.4f" speedup;
  Printf.bprintf b "    \"outputs_identical\": %b,\n" identical;
  fld "meth_cache_hit_rate" "%.6f" meth_rate;
  fld ~last:true "prop_cache_hit_rate" "%.6f" prop_rate;
  Printf.bprintf b "  },\n";
  Printf.bprintf b "  \"micro\": {\n";
  fld "interp_fib_steps_per_sec" "%.0f" interp_sps;
  fld "exttsp_layout_ops_per_sec" "%.2f" exttsp_ops;
  fld "exttsp_layout_ops_per_sec_min" "%.2f" exttsp.(0);
  fld "exttsp_layout_ops_per_sec_max" "%.2f" exttsp.(exttsp_reps - 1);
  fld "exttsp_layout_reps" "%d" exttsp_reps;
  fld "exttsp_layout_ops_per_rep" "%d" exttsp_ops_per_rep;
  fld "c3_order_ops_per_sec" "%.2f" c3_ops;
  fld ~last:true "binio_roundtrip_ops_per_sec" "%.2f" binio_ops;
  Printf.bprintf b "  },\n";
  Printf.bprintf b "  \"probe_overhead\": {\n";
  fld "requests" "%d" overhead_requests;
  fld "rounds" "%d" overhead_rounds;
  fld "bound" "%.2f" overhead_bound;
  List.iteri
    (fun i (name, med, lo, hi) ->
      Printf.bprintf b "    %S: { \"median\": %.4f, \"min\": %.4f, \"max\": %.4f }%s\n" name med
        lo hi
        (if i = List.length overhead - 1 then "" else ","))
    overhead;
  Printf.bprintf b "  },\n";
  Printf.bprintf b "  \"telemetry_counters\": {\n";
  let cs = Js_telemetry.counters tel in
  List.iteri
    (fun i (name, v) ->
      Printf.bprintf b "    %S: %d%s\n" name v (if i = List.length cs - 1 then "" else ","))
    cs;
  Printf.bprintf b "  }\n";
  Printf.bprintf b "}\n";
  (* quick (CI) runs keep their own file so they never clobber the committed
     full-run BENCH_interp.json *)
  write_artifact ~tag:"perf"
    ~default:(if quick then "BENCH_interp.quick.json" else "BENCH_interp.json")
    (Buffer.contents b);
  (* the quick run is too short to time a ratio; it only checks the fields *)
  if (not quick) && List.exists (fun (_, med, _, _) -> med > overhead_bound) overhead then begin
    Printf.eprintf "bench perf: a probe path's median overhead exceeds %.2fx plain\n" overhead_bound;
    exit 1
  end

(* -------------------------------------------- distribution ablation -- *)

(* How much fetch unreliability the consumer ladder (bounded retries with
   exponential backoff, then cross-region fallback, then degradation to a
   no-Jump-Start boot) absorbs before the fleet loses Jump-Start coverage,
   on the whole-fleet restart of the §VI ablations.  Writes BENCH_dist.json
   (BENCH_dist.quick.json under --quick). *)
let ablation_dist () =
  section "Ablation: distribution-network robustness (retry/backoff/cross-region)";
  let quick = !quick_mode in
  let n_servers = if quick then 60 else 120 in
  let duration = if quick then 240. else 600. in
  let d = Cluster.Dist_net.default_config in
  let with_net network = { d with Cluster.Dist_net.network } in
  let n = Cluster.Dist_net.default_network in
  let scenarios =
    [ ("baseline", d);
      ("fail30", with_net { n with fetch_fail_rate = 0.3 });
      ( "fail30+timeout",
        with_net { n with fetch_fail_rate = 0.3; fetch_timeout = 1.0; latency_mean = 0.5 } );
      ( "fail60+cross-region",
        { (with_net { n with fetch_fail_rate = 0.6; fetch_timeout = 1.0; latency_mean = 0.5 }) with
          regions = 3
        } );
      ("stale20", with_net { n with stale_rate = 0.2 })
    ]
  in
  Printf.printf "%22s %12s %10s %9s %9s %9s %7s %7s\n" "scenario" "jumpstarted" "fallbacks"
    "attempts" "failures" "timeouts" "stale" "xregion";
  let rows =
    List.map
      (fun (name, dist) ->
        let cfg =
          ablation_cfg ~duration { (Lazy.force fleet_base_cfg) with Cluster.Fleet.n_servers; dist }
        in
        let stats = Js_sim.Region.run cfg (Lazy.force fleet_app) ~seed:(bench_seed 424) in
        let c =
          (* inactive network: the ladder never ran *)
          Option.value stats.Js_sim.Region.dist ~default:(Cluster.Dist_net.fresh_counters ())
        in
        Printf.printf "%22s %12d %10d %9d %9d %9d %7d %7d\n" name
          stats.Js_sim.Region.jump_started stats.Js_sim.Region.fallbacks
          c.Cluster.Dist_net.attempts c.Cluster.Dist_net.failures c.Cluster.Dist_net.timeouts
          c.Cluster.Dist_net.stale_rejects c.Cluster.Dist_net.cross_region_fetches;
        (name, stats, c))
      scenarios
  in
  let b = Buffer.create 2048 in
  Printf.bprintf b "{\n";
  Printf.bprintf b "  \"schema\": \"jumpstart-bench-dist/2\",\n";
  Printf.bprintf b "  \"quick\": %b,\n" quick;
  Printf.bprintf b "  \"servers\": %d,\n" n_servers;
  Printf.bprintf b "  \"scenarios\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i (name, stats, c) ->
      Printf.bprintf b
        "    { \"name\": %S, \"jump_started\": %d, \"fallbacks\": %d, \
         \"jump_start_rate\": %.4f,\n      \"attempts\": %d, \"deliveries\": %d, \
         \"failures\": %d, \"timeouts\": %d, \"stale_rejects\": %d, \"cross_region\": %d }%s\n"
        name stats.Js_sim.Region.jump_started stats.Js_sim.Region.fallbacks
        (float_of_int stats.Js_sim.Region.jump_started /. float_of_int n_servers)
        c.Cluster.Dist_net.attempts c.Cluster.Dist_net.deliveries c.Cluster.Dist_net.failures
        c.Cluster.Dist_net.timeouts c.Cluster.Dist_net.stale_rejects
        c.Cluster.Dist_net.cross_region_fetches
        (if i = n - 1 then "" else ","))
    rows;
  Printf.bprintf b "  ]\n";
  Printf.bprintf b "}\n";
  write_artifact ~tag:"dist"
    ~default:(if quick then "BENCH_dist.quick.json" else "BENCH_dist.json")
    (Buffer.contents b)

(* ------------------------------------------------- push (DES) bench -- *)

(* Discrete-event rolling-push comparison (Fig. 1's capacity story at
   request granularity): Jump-Start vs no-Jump-Start pushes under random
   and warmup-aware routing.  Acceptance: over several paired replicate
   seeds, Jump-Start's capacity-loss integral and time-to-full-capacity
   are not statistically significantly worse than 0.75x of no-Jump-Start's
   (Exp.Gate significance tests), and warmup-aware routing is no worse than
   random on p99 latency during the push.  Writes BENCH_push.json
   (BENCH_push.quick.json under --quick). *)
let bench_push () =
  section "push: discrete-event rolling deployment (js_sim)";
  let quick = !quick_mode in
  let n_servers = if quick then 16 else 48 in
  let warm_rps = if quick then 40. else 60. in
  let duration = if quick then 300. else 900. in
  let push_at = if quick then 60. else 120. in
  let drain_cap = max 2 (n_servers / 8) in
  let fleet =
    { (Lazy.force fleet_base_cfg) with
      Cluster.Fleet.n_servers;
      n_buckets = 4;
      seeders_per_bucket = 3
    }
  in
  let base =
    { Js_sim.Region.default_config with
      Js_sim.Region.fleet;
      warm_rps;
      arrival =
        { Js_sim.Arrival.default_config with
          Js_sim.Arrival.base_rps = float_of_int n_servers *. warm_rps *. 0.7
        };
      push_at;
      drain_cap;
      duration
    }
  in
  let scenarios =
    [ ("nojs-random", { base with Js_sim.Region.jumpstart = false; policy = Js_sim.Balancer.Random });
      ( "nojs-aware",
        { base with Js_sim.Region.jumpstart = false; policy = Js_sim.Balancer.Warmup_weighted } );
      ("js-random", { base with Js_sim.Region.policy = Js_sim.Balancer.Random });
      ("js-aware", { base with Js_sim.Region.policy = Js_sim.Balancer.Warmup_weighted })
    ]
  in
  let app = Lazy.force fleet_app in
  let seed = bench_seed 42 in
  Printf.printf "%12s %12s %10s %10s %10s %10s\n" "scenario" "cap-loss" "ttfc(s)" "p99(s)"
    "p99push(s)" "shed";
  let rows =
    List.map
      (fun (name, cfg) ->
        let stats = Js_sim.Region.run cfg app ~seed in
        let shed =
          stats.Js_sim.Region.shed_queue_full + stats.Js_sim.Region.shed_timeout
          + stats.Js_sim.Region.shed_no_server + stats.Js_sim.Region.shed_drain
        in
        let q s q = Js_util.Stats.Quantile.quantile s q in
        Printf.printf "%12s %12.0f %10.0f %10.3f %10.3f %10d\n" name
          stats.Js_sim.Region.capacity_loss_integral stats.Js_sim.Region.time_to_full_capacity
          (q stats.Js_sim.Region.latency 0.99)
          (q stats.Js_sim.Region.latency_push 0.99)
          shed;
        (name, stats, shed))
      scenarios
  in
  let find name = match List.find (fun (n, _, _) -> n = name) rows with _, s, _ -> s in
  let js_r = find "js-random" and js_a = find "js-aware" in
  let ttfc_or s = if s.Js_sim.Region.time_to_full_capacity >= 0. then s.Js_sim.Region.time_to_full_capacity else duration in
  (* The capacity-loss and ttfc gates are significance tests (Exp.Gate)
     instead of single-seed point asserts: run the js/nojs pair over
     [n_pairs] replicate seeds (same seed on both sides — paired), and
     compare js against a recorded expectation of [ratio * nojs] per seed.
     The gate fails only when js is *statistically significantly* worse than
     that expectation (the whole bootstrap CI beyond +min_effect); both
     ratios and the CI band are env-tunable. *)
  let n_pairs = bench_seeds (if quick then 3 else 5) in
  let pair_seeds = Js_exp.Harness.derive_seeds ~seed ~n:n_pairs in
  let pairs =
    Array.map
      (fun seed ->
        let nojs =
          Js_sim.Region.run
            { base with Js_sim.Region.jumpstart = false; policy = Js_sim.Balancer.Random }
            app ~seed
        in
        let js = Js_sim.Region.run { base with Js_sim.Region.policy = Js_sim.Balancer.Random } app ~seed in
        (nojs, js))
      pair_seeds
  in
  let gate metric ~ratio f =
    Js_exp.Gate.compare_paired
      ~metric:(Printf.sprintf "%s_vs_%.2fx_nojs" metric ratio)
      ~baseline:(Array.map (fun (nojs, _) -> ratio *. f nojs) pairs)
      ~candidate:(Array.map (fun (_, js) -> f js) pairs)
      ()
  in
  let gate_loss =
    gate "capacity_loss" ~ratio:0.75 (fun s -> s.Js_sim.Region.capacity_loss_integral)
  in
  let gate_ttfc = gate "ttfc" ~ratio:0.75 ttfc_or in
  let crit_loss = Js_exp.Gate.pass gate_loss in
  let crit_ttfc = Js_exp.Gate.pass gate_ttfc in
  let p99_push s = Js_util.Stats.Quantile.quantile s.Js_sim.Region.latency_push 0.99 in
  (* the DDSketch is 1%-relative-accurate; allow that much slack *)
  let crit_p99 = p99_push js_a <= p99_push js_r *. 1.02 in
  (* determinism: an identical re-run must produce an identical digest *)
  let rerun = Js_sim.Region.run (List.assoc "js-aware" scenarios) app ~seed in
  let deterministic = Js_sim.Region.digest rerun = Js_sim.Region.digest js_a in
  Printf.printf "\nsignificance gates (%d paired seeds):\n  %s\n  %s\n" n_pairs
    (Format.asprintf "%a" Js_exp.Gate.pp gate_loss)
    (Format.asprintf "%a" Js_exp.Gate.pp gate_ttfc);
  Printf.printf
    "\ncriteria: js not significantly worse than expected capacity loss: %b | expected ttfc: %b |\n\
    \          aware <= random p99 during push: %b | same-seed deterministic: %b\n"
    crit_loss crit_ttfc crit_p99 deterministic;
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\n";
  Printf.bprintf b "  \"schema\": \"jumpstart-bench-push/2\",\n";
  Printf.bprintf b "  \"quick\": %b,\n" quick;
  Printf.bprintf b
    "  \"config\": { \"servers\": %d, \"warm_rps\": %.0f, \"utilization\": 0.7, \
     \"duration\": %.0f, \"push_at\": %.0f, \"drain_cap\": %d, \"seed\": %d },\n"
    n_servers warm_rps duration push_at drain_cap seed;
  Printf.bprintf b "  \"scenarios\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i (name, s, shed) ->
      let q sk p =
        if Js_util.Stats.Quantile.count sk = 0 then -1.
        else Js_util.Stats.Quantile.quantile sk p
      in
      Printf.bprintf b
        "    { \"name\": %S, \"jumpstart\": %b, \"policy\": %S,\n\
        \      \"capacity_loss_integral\": %.3f, \"time_to_full_capacity\": %.3f, \
         \"push_done\": %.3f,\n\
        \      \"latency_p50\": %.6f, \"latency_p95\": %.6f, \"latency_p99\": %.6f,\n\
        \      \"push_latency_p50\": %.6f, \"push_latency_p95\": %.6f, \
         \"push_latency_p99\": %.6f,\n\
        \      \"arrived\": %d, \"completed\": %d, \"shed\": %d, \"crashes\": %d,\n\
        \      \"jump_started\": %d, \"fallbacks\": %d, \"aborted\": %b,\n\
        \      \"digest_md5\": %S }%s\n"
        name s.Js_sim.Region.jumpstart
        (Js_sim.Balancer.policy_to_string s.Js_sim.Region.policy)
        s.Js_sim.Region.capacity_loss_integral s.Js_sim.Region.time_to_full_capacity
        s.Js_sim.Region.push_done (q s.Js_sim.Region.latency 0.5) (q s.Js_sim.Region.latency 0.95)
        (q s.Js_sim.Region.latency 0.99)
        (q s.Js_sim.Region.latency_push 0.5)
        (q s.Js_sim.Region.latency_push 0.95)
        (q s.Js_sim.Region.latency_push 0.99)
        s.Js_sim.Region.arrived s.Js_sim.Region.completed shed s.Js_sim.Region.crashes
        s.Js_sim.Region.jump_started s.Js_sim.Region.fallbacks s.Js_sim.Region.aborted
        (Digest.to_hex (Digest.string (Js_sim.Region.digest s)))
        (if i = n - 1 then "" else ","))
    rows;
  Printf.bprintf b "  ],\n";
  let bprintf_gate last g =
    let lo, hi = g.Js_exp.Gate.ci in
    Printf.bprintf b
      "    { \"metric\": %S, \"n\": %d, \"baseline_mean\": %.6f, \
       \"candidate_mean\": %.6f,\n\
      \      \"effect\": %.6f, \"ci\": [%.6f, %.6f], \"min_effect\": %.6f, \
       \"verdict\": %S }%s\n"
      g.Js_exp.Gate.metric g.Js_exp.Gate.n g.Js_exp.Gate.baseline_mean
      g.Js_exp.Gate.candidate_mean g.Js_exp.Gate.effect lo hi
      g.Js_exp.Gate.min_effect
      (Js_exp.Gate.verdict_to_string g.Js_exp.Gate.verdict)
      (if last then "" else ",")
  in
  Printf.bprintf b "  \"gates\": [\n";
  bprintf_gate false gate_loss;
  bprintf_gate true gate_ttfc;
  Printf.bprintf b "  ],\n";
  Printf.bprintf b
    "  \"criteria\": { \"js_capacity_loss_not_significantly_regressed\": %b, \
     \"js_ttfc_not_significantly_regressed\": %b, \
     \"aware_no_worse_p99_during_push\": %b, \"same_seed_deterministic\": %b }\n"
    crit_loss crit_ttfc crit_p99 deterministic;
  Printf.bprintf b "}\n";
  write_artifact ~tag:"push"
    ~default:(if quick then "BENCH_push.quick.json" else "BENCH_push.json")
    (Buffer.contents b);
  if not (crit_loss && crit_ttfc && crit_p99 && deterministic) then begin
    prerr_endline "bench push: acceptance criteria failed";
    exit 1
  end

(* Runs [gcfg] on the barrier loop in a forked child and returns its stats
   and wall seconds.  With [~pin] the child first pins itself to CPU 0, so
   the loop sizes itself to one domain: the one-CPU side of the speedup gate
   is the product with fewer CPUs, not another mode.  OCaml 5.1's
   [Unix.fork] refuses once the process has created a domain, so every
   child must be forked before the bench runs the loop itself. *)
let run_in_child ~pin gcfg app ~seed =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    let pin_cmd = Printf.sprintf "taskset -p -c 0 %d > /dev/null" (Unix.getpid ()) in
    if (not pin) || Sys.command pin_cmd = 0 then begin
      Gc.full_major ();
      let t0 = Unix.gettimeofday () in
      let gs = Js_sim.Region.run_global gcfg app ~seed in
      let oc = Unix.out_channel_of_descr w in
      Marshal.to_channel oc (gs, Unix.gettimeofday () -. t0) [];
      close_out oc
    end;
    Unix._exit 0
  | pid -> (
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let res = try Some (Marshal.from_channel ic) with End_of_file -> None in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    match res with
    | Some (res : Js_sim.Region.global_stats * float) -> res
    | None ->
      prerr_endline "bench scale: a timed child run failed (or taskset could not pin it)";
      exit 1)

(* A 100k-server multi-region global fleet run must complete with
   reproducible digests: on all CPUs and pinned to one, the barrier loop
   matches the merged queue, batching is digest-neutral, and the all-CPU
   run is within 0.8x of its ideal speedup over the one-CPU run, decided
   over alternating pairs.  Writes BENCH_scale.json. *)
let bench_scale () =
  section "scale: 100k-server multi-region fleet";
  let quick = !quick_mode in
  let provenance = provenance_fields () in
  (* -- 100k-server multi-region global fleet ----------------------------- *)
  let n_regions = if quick then 3 else 5 in
  let servers_per_region = if quick then 2_000 else 20_000 in
  let duration = if quick then 60. else 120. in
  let fleet =
    { (Lazy.force fleet_base_cfg) with
      Cluster.Fleet.n_servers = servers_per_region;
      n_buckets = 4;
      seeders_per_bucket = 3
    }
  in
  let base =
    { Js_sim.Region.default_config with
      Js_sim.Region.fleet;
      warm_rps = 50.;
      (* the scale axis is the server count (routing structures, restart
         train, event-pool footprint), not per-server load: light traffic
         keeps the event total bounded at 100k servers *)
      arrival =
        { Js_sim.Arrival.default_config with
          Js_sim.Arrival.base_rps = float_of_int servers_per_region *. 0.1
        };
      policy = Js_sim.Balancer.Random;
      push_at = duration /. 4.;
      drain_cap = servers_per_region / 40;
      duration
    }
  in
  let gcfg =
    { Js_sim.Region.default_global_config with
      Js_sim.Region.base;
      n_regions;
      region_phase = 600.;
      push_stagger = duration /. 40.;
      spillover = true;
      spill_latency = 15.;
      epoch = 15.
    }
  in
  let app = Lazy.force fleet_app in
  let seed = bench_seed 42 in
  let host_cpus = Domain.recommended_domain_count () in
  let taskset = Sys.command "command -v taskset > /dev/null 2>&1" = 0 in
  (* One-CPU and all-CPU runs alternate in pairs, so host drift hits both
     sides of a pair alike; the fleet figures below are the all-CPU
     (product) runs'. *)
  let n_pairs = if quick then 2 else 5 in
  let pairs =
    Array.init n_pairs (fun _ ->
        let one = run_in_child ~pin:taskset gcfg app ~seed in
        (one, run_in_child ~pin:false gcfg app ~seed))
  in
  (* -- arrival batching: the same run with the heap round-trip restored
     must give the same digest.  Its speed is not compared: one unbatched
     run against the batched median does not resolve the sign of the
     effect at this scale. *)
  let gs_nb, _ = run_in_child ~pin:false { gcfg with Js_sim.Region.batch = false } app ~seed in
  let gs = fst (snd pairs.(0)) in
  let one_cpu_domains = (fst (fst pairs.(0))).Js_sim.Region.g_domains in
  let domains = gs.Js_sim.Region.g_domains in
  let epoch_digest = Js_sim.Region.global_digest (fst (fst pairs.(0))) in
  let one_walls = Array.map (fun ((_, w), _) -> w) pairs in
  let walls = Array.map (fun (_, (_, w)) -> w) pairs in
  let wall = Js_util.Stats.median walls in
  let total_servers = n_regions * servers_per_region in
  let g_eps = float_of_int gs.Js_sim.Region.g_events /. wall in
  let wall_per_hour = wall /. (duration /. 3600.) in
  Printf.printf
    "\nglobal fleet: %d regions x %d servers = %d servers, %.0f sim-seconds, %d domains\n"
    n_regions servers_per_region total_servers duration domains;
  Printf.printf "  %d events in %.2fs wall (%.0f events/s, %.1fs wall per sim-hour)\n"
    gs.Js_sim.Region.g_events wall g_eps wall_per_hour;
  let jump_started =
    Array.fold_left (fun a r -> a + r.Js_sim.Region.jump_started) 0 gs.Js_sim.Region.g_regions
  in
  Printf.printf "  jump-started %d/%d, spilled %d\n" jump_started total_servers
    gs.Js_sim.Region.g_spilled;
  let batch_neutral = Js_sim.Region.global_digest gs_nb = epoch_digest in
  Printf.printf "\narrival batching: unbatched run digest-neutral %b\n" batch_neutral;
  (* -- speedup: the same run pinned to one CPU ---------------------------- *)
  let one_wall = Js_util.Stats.median one_walls in
  let fleet_digests_equal =
    Array.for_all
      (fun ((one, _), (all, _)) ->
        Js_sim.Region.global_digest one = epoch_digest
        && Js_sim.Region.global_digest all = epoch_digest)
      pairs
  in
  let speedup = one_wall /. wall in
  (* A barrier round ends when its busiest domain does, and round-robin
     gives that domain ceil(n_regions / domains) regions: the gate asks for
     0.8x of the ideal n_regions / that.  It is a paired comparison of wall
     seconds (Exp.Gate) with a practical-significance band of 1 - 1/gate and
     passes only on an [Improved] verdict.  It needs more than one CPU and a
     way to pin one, so it is recorded but skipped under --quick, on a
     one-CPU host or without taskset; the digest gates are unconditional. *)
  let ideal_speedup =
    float_of_int n_regions /. float_of_int ((n_regions + domains - 1) / domains)
  in
  let gate = 0.8 *. ideal_speedup in
  let cmp =
    Js_exp.Gate.compare_paired ~metric:"wall_seconds"
      ~min_effect:(1. -. (1. /. gate))
      ~baseline:one_walls ~candidate:walls ()
  in
  let gate_enforced = (not quick) && host_cpus > 1 && taskset in
  let crit_speedup = (not gate_enforced) || cmp.Js_exp.Gate.verdict = Js_exp.Gate.Improved in
  Printf.printf
    "one CPU (%d domain): %.2fs median wall, speedup on %d domains %.2fx (ideal %.2fx), \
     digests == epoch: %b\n  %s\n  speedup gate %s\n"
    one_cpu_domains one_wall domains speedup ideal_speedup fleet_digests_equal
    (Format.asprintf "%a" Js_exp.Gate.pp cmp)
    (if gate_enforced then
       Printf.sprintf "enforced (>= %.2fx, verdict improved): %b" gate crit_speedup
     else "skipped (recorded only)");
  (* -- determinism: epoch barriers == merged queue, in-process ----------- *)
  let small =
    { gcfg with
      Js_sim.Region.base =
        { base with
          Js_sim.Region.fleet = { fleet with Cluster.Fleet.n_servers = 32 };
          arrival =
            { Js_sim.Arrival.default_config with Js_sim.Arrival.base_rps = 32. *. 50. *. 0.5 };
          drain_cap = 4;
          duration = 300.
        };
      n_regions = 3;
      disasters = [ Js_sim.Region.Region_loss { region = 2; at = 150. } ]
    }
  in
  let d mode seed =
    Js_sim.Region.global_digest (Js_sim.Region.run_global ~mode small app ~seed)
  in
  let e7 = d `Epoch 7 in
  let epoch_eq_merged = e7 = d `Merged 7 in
  let deterministic = e7 = d `Epoch 7 in
  Printf.printf
    "\ncriteria: epoch == merged digest (disaster run): %b | same-seed deterministic: %b |\n\
    \          batching digest-neutral: %b | one-CPU digest == all-CPU (fleet run): %b | \
     speedup gate: %b\n"
    epoch_eq_merged deterministic batch_neutral fleet_digests_equal crit_speedup;
  let b = Buffer.create 2048 in
  Printf.bprintf b "{\n";
  Printf.bprintf b "  \"schema\": \"jumpstart-bench-scale/5\",\n";
  Printf.bprintf b "  \"quick\": %b,\n" quick;
  Printf.bprintf b "  \"provenance\": { %s },\n"
    (String.concat ", "
       (List.map
          (fun (k, v) -> Printf.sprintf "%S: %s" k v)
          (provenance @ [ ("pairs", string_of_int n_pairs) ])));
  Printf.bprintf b
    "  \"fleet\": { \"regions\": %d, \"servers_per_region\": %d, \"total_servers\": %d, \
     \"sim_seconds\": %.0f, \"domains\": %d, \"events\": %d, \"events_per_sec\": %.0f, \
     \"wall_seconds\": %.3f, \"wall_seconds_per_sim_hour\": %.2f, \"jump_started\": %d, \
     \"spilled\": %d },\n"
    n_regions servers_per_region total_servers duration domains gs.Js_sim.Region.g_events g_eps
    wall wall_per_hour jump_started gs.Js_sim.Region.g_spilled;
  Printf.bprintf b "  \"batching\": { \"digest_neutral\": %b },\n" batch_neutral;
  let walls_json a = String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.3f") a)) in
  let ci_lo, ci_hi = cmp.Js_exp.Gate.ci in
  Printf.bprintf b
    "  \"one_cpu\": { \"domains\": %d, \"wall_seconds\": %.3f, \"speedup_vs_one_cpu\": %.3f, \
     \"ideal_speedup\": %.3f, \"speedup_gate\": %.3f, \"digests_equal\": %b, \
     \"speedup_gate_enforced\": %b,\n\
    \    \"pairs\": { \"n\": %d, \"one_cpu_wall_seconds\": [%s], \"all_cpus_wall_seconds\": [%s], \
     \"wall_effect\": %.4f, \"wall_effect_ci95\": [%.4f, %.4f], \"min_effect\": %.4f, \
     \"verdict\": \"%s\" } },\n"
    one_cpu_domains one_wall speedup ideal_speedup gate fleet_digests_equal gate_enforced
    cmp.Js_exp.Gate.n (walls_json one_walls) (walls_json walls) cmp.Js_exp.Gate.effect ci_lo
    ci_hi cmp.Js_exp.Gate.min_effect
    (Js_exp.Gate.verdict_to_string cmp.Js_exp.Gate.verdict);
  Printf.bprintf b
    "  \"criteria\": { \"epoch_digest_equals_merged\": %b, \"same_seed_deterministic\": %b, \
     \"batching_digest_neutral\": %b, \"one_cpu_fleet_digest_equals_all_cpus\": %b, \
     \"speedup_gate\": %b }\n"
    epoch_eq_merged deterministic batch_neutral fleet_digests_equal crit_speedup;
  Printf.bprintf b "}\n";
  write_artifact ~tag:"scale"
    ~default:(if quick then "BENCH_scale.quick.json" else "BENCH_scale.json")
    (Buffer.contents b);
  if
    not (epoch_eq_merged && deterministic && batch_neutral && fleet_digests_equal && crit_speedup)
  then begin
    prerr_endline "bench scale: acceptance criteria failed";
    exit 1
  end

(* ---------------------------------------------------------------- churn -- *)

(* Stale-profile matching under code churn (paper §VI-B): seed a package on
   build 0, churn the application at increasing rates (Workload.Churn), and
   salvage the same package against each drifted build.  Micro side measures
   the match itself (matched fraction, transferred counter mass, salvaged
   boot through Consumer.boot_dist); macro side feeds the measured transfer
   quality into the warmup model to get time-to-steady-state and capacity
   loss vs churn, from which the profile half-life figure is interpolated.
   Writes BENCH_churn.json (or .quick.json). *)
let bench_churn () =
  section "churn: stale-profile salvage across code pushes";
  let quick = !quick_mode in
  (* quick: the unit-test app; full: enough workers that even a 2% churn
     rate touches a few declarations and the decay curve is smooth *)
  let spec =
    if quick then Workload.App_spec.tiny
    else { Workload.App_spec.tiny with Workload.App_spec.n_workers = 120; n_endpoints = 8 }
  in
  let traffic_n = if quick then 150 else 400 in
  let rates = if quick then [ 0.0; 0.1; 0.2; 0.4 ] else [ 0.0; 0.02; 0.05; 0.1; 0.2; 0.4 ] in
  let churn_seed = bench_seed 13 in
  let module SM = Jit_profile.Stale_match in
  let module JS = Jumpstart in
  let app0 = Workload.Codegen.generate spec in
  let traffic (a : Workload.Codegen.app) seed engine =
    let mix = Workload.Request.mix a ~region:0 ~bucket:0 in
    let rng = Js_util.Rng.create seed in
    for _ = 1 to traffic_n do
      ignore (Workload.Request.invoke engine a (Workload.Request.sample rng mix))
    done
  in
  let options = { JS.Options.default with JS.Options.validate_packages = false } in
  let outcome =
    match
      JS.Seeder.run app0.Workload.Codegen.repo options ~profile_traffic:(traffic app0 1)
        ~optimized_traffic:(traffic app0 2) ~region:0 ~bucket:3 ~seeder_id:7 ()
    with
    | Ok o -> o
    | Error msg ->
      Printf.eprintf "bench churn: seeder failed: %s\n" msg;
      exit 1
  in
  let bytes = outcome.JS.Seeder.bytes in
  let meta = outcome.JS.Seeder.package.JS.Package.meta in
  (* macro warmup baseline: no Jump-Start *)
  let macro = Lazy.force macro_app in
  let cfg = S.default_config in
  let until = 600. in
  let time_to_steady server =
    let rps = S.rps_series server and peak = S.peak_rps server in
    let rec scan t =
      if t > until then until else if Series.value_at rps t >= 0.95 *. peak then t else scan (t +. 5.)
    in
    scan 0.
  in
  let capacity_loss server =
    Series.capacity_loss (S.rps_series server) ~peak:(S.peak_rps server) ~until
  in
  let nojs = run_server ~discovery_seed:21 cfg macro S.No_jumpstart ~until in
  let nojs_tts = time_to_steady nojs and nojs_loss = capacity_loss nojs in
  Printf.printf "no-Jump-Start baseline: time-to-steady %.0fs, capacity loss %.1f%%\n\n" nojs_tts
    (100. *. nojs_loss);
  Printf.printf "%6s %9s %9s %9s %8s %9s %8s %8s %9s\n" "rate" "distance" "matched" "mass"
    "salvaged" "booted" "tts(s)" "loss%" "match.f";
  let rows =
    List.map
      (fun rate ->
        let b, cstats = Workload.Churn.generate { Workload.Churn.seed = churn_seed; rate } spec in
        let repo1 = b.Workload.Codegen.repo in
        let pkg, mstats =
          match JS.Package.of_bytes_stale repo1 bytes with
          | Ok x -> x
          | Error msg ->
            Printf.eprintf "bench churn: salvage decode failed at rate %g: %s\n" rate msg;
            exit 1
        in
        let digest_identical = rate = 0. && JS.Package.to_bytes pkg = bytes in
        (* boot the churned build against the build-0 package through the
           full distribution + salvage path *)
        let store = JS.Store.create () in
        JS.Store.publish store ~region:0 ~bucket:3 bytes meta;
        let ds = JS.Dist_store.create ~repo:repo1 store in
        let tel = Js_telemetry.create () in
        let booted =
          match
            JS.Consumer.boot_dist ~telemetry:tel repo1 JS.Options.default ds
              (Js_util.Rng.create 2) ~region:0 ~bucket:3
              ~health_traffic:(traffic b 5) ~fallback_traffic:(traffic b 9) ()
          with
          | JS.Consumer.Jump_started _ -> true
          | JS.Consumer.Fell_back _ -> false
        in
        let salvages = Js_telemetry.counter tel "consumer.salvages" in
        let match_funcs = Js_telemetry.counter tel "match.funcs_matched" in
        let match_blocks = Js_telemetry.counter tel "match.blocks_matched" in
        let match_counters = Js_telemetry.counter tel "match.counters_transferred" in
        (* macro: measured transfer quality drives the warmup curve *)
        let q = SM.quality mstats in
        let mpkg = S.make_package cfg macro ~quality:q () in
        let server = run_server ~discovery_seed:22 cfg macro (S.Consumer mpkg) ~until in
        let tts = time_to_steady server and loss = capacity_loss server in
        Printf.printf "%6.2f %9.3f %9.3f %9.3f %8b %9b %8.0f %8.1f %9d\n" rate
          cstats.Workload.Churn.edit_distance (SM.matched_fraction mstats) q (salvages > 0)
          booted tts (100. *. loss) match_funcs;
        (rate, cstats, mstats, digest_identical, booted, salvages, match_funcs, match_blocks,
         match_counters, tts, loss))
      rates
  in
  (* profile half-life: the churn rate at which the warmup benefit over
     no-Jump-Start halves, interpolated on the measured curve (linearly
     extrapolated from the endpoints when the curve never crosses; -1 when
     the benefit does not decay at all) *)
  let half_life curve =
    match curve with
    | [] | [ _ ] -> -1.
    | (r0, v0) :: _ ->
      let target = v0 /. 2. in
      let rec walk = function
        | (ra, va) :: (rb, vb) :: rest ->
          if (va >= target && vb <= target) || (va <= target && vb >= target) then
            if va = vb then rb else ra +. ((rb -. ra) *. (va -. target) /. (va -. vb))
          else walk ((rb, vb) :: rest)
        | _ -> (
          (* never crossed: extrapolate from endpoints *)
          let rl, vl = List.nth curve (List.length curve - 1) in
          let slope = (v0 -. vl) /. (rl -. r0) in
          if slope <= 0. then -1. else r0 +. ((v0 -. target) /. slope))
      in
      walk curve
  in
  let benefit_curve =
    List.map (fun (rate, _, _, _, _, _, _, _, _, _, loss) -> (rate, nojs_loss -. loss)) rows
  in
  let matched_curve =
    List.map (fun (rate, _, mstats, _, _, _, _, _, _, _, _) -> (rate, SM.quality mstats)) rows
  in
  let hl_benefit = half_life benefit_curve in
  let hl_matched = half_life matched_curve in
  (* single-push decay compounds across pushes: after k pushes at rate r,
     transferred mass ~ m(r)^k, so the half-life is log .5 / log m pushes *)
  let hl_pushes m = if m >= 1. || m <= 0. then -1. else log 0.5 /. log m in
  Printf.printf
    "\nprofile half-life: warmup benefit halves at churn rate %.3f; transferred mass halves at \
     %.3f\n"
    hl_benefit hl_matched;
  List.iter
    (fun (rate, m) ->
      if rate > 0. && m < 1. && m > 0. then
        Printf.printf "  at churn rate %.2f per push, counter mass halves after %.0f pushes\n" rate
          (hl_pushes m))
    matched_curve;
  (* acceptance criteria.  The salvage criteria key on the smallest rate
     whose build actually drifted (salvage path taken): a low rate on a
     small app can legitimately touch nothing, in which case the package is
     delivered through the normal fingerprint-matched path. *)
  let find_rate r = List.find (fun (rate, _, _, _, _, _, _, _, _, _, _) -> rate = r) rows in
  let _, _, m0, digest0, booted0, _, _, _, _, _, _ = find_rate 0.0 in
  let crit_digest = digest0 && booted0 in
  let crit_full_match = SM.quality m0 = 1.0 && SM.matched_fraction m0 = 1.0 in
  let crit_salvage, crit_beats_nojs =
    match
      List.find_opt (fun (_, _, _, _, _, salvages, _, _, _, _, _) -> salvages > 0) rows
    with
    | None -> (false, false)
    | Some (_, _, _, _, booted_s, _, mf_s, _, _, tts_s, _) ->
      (booted_s && mf_s > 0, tts_s < nojs_tts)
  in
  let crit_decay =
    let _, _, ml, _, _, _, _, _, _, _, loss_l = List.nth rows (List.length rows - 1) in
    SM.quality ml < 1.0 || loss_l > (let _, _, _, _, _, _, _, _, _, _, l0 = find_rate 0.0 in l0)
  in
  Printf.printf
    "criteria: churn-0 byte-identical+booted: %b | churn-0 full match: %b |\n\
    \          smallest-churn salvaged boot: %b | beats no-JS time-to-steady: %b | decay \
     observed: %b\n"
    crit_digest crit_full_match crit_salvage crit_beats_nojs crit_decay;
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\n";
  Printf.bprintf b "  \"schema\": \"jumpstart-bench-churn/1\",\n";
  Printf.bprintf b "  \"quick\": %b,\n" quick;
  Printf.bprintf b
    "  \"config\": { \"app_seed\": %d, \"churn_seed\": %d, \"traffic_requests\": %d, \
     \"macro_until\": %.0f },\n"
    spec.Workload.App_spec.seed churn_seed traffic_n until;
  Printf.bprintf b
    "  \"baseline\": { \"nojs_time_to_steady\": %.1f, \"nojs_capacity_loss\": %.4f },\n" nojs_tts
    nojs_loss;
  Printf.bprintf b "  \"rates\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i
         ( rate, cstats, mstats, digest_identical, booted, salvages, match_funcs, match_blocks,
           match_counters, tts, loss ) ->
      Printf.bprintf b
        "    { \"rate\": %.3f, \"edit_distance\": %.4f, \"decls_touched\": %d,\n\
        \      \"matched_fraction\": %.4f, \"mass_fraction\": %.4f, \"funcs_matched\": %d, \
         \"funcs_total\": %d,\n\
        \      \"blocks_matched\": %d, \"arcs_dropped\": %d, \"digest_identical\": %b,\n\
        \      \"booted\": %b, \"salvages\": %d, \"match_funcs\": %d, \"match_blocks\": %d, \
         \"match_counters\": %d,\n\
        \      \"time_to_steady\": %.1f, \"capacity_loss\": %.4f, \"half_life_pushes\": %.1f }%s\n"
        rate cstats.Workload.Churn.edit_distance cstats.Workload.Churn.decls_touched
        (SM.matched_fraction mstats) (SM.quality mstats) mstats.SM.funcs_matched
        mstats.SM.funcs_total mstats.SM.blocks_matched mstats.SM.arcs_dropped digest_identical
        booted salvages match_funcs match_blocks match_counters tts loss
        (hl_pushes (SM.quality mstats))
        (if i = n - 1 then "" else ","))
    rows;
  Printf.bprintf b "  ],\n";
  Printf.bprintf b
    "  \"half_life\": { \"warmup_benefit\": %.4f, \"transferred_mass\": %.4f },\n" hl_benefit
    hl_matched;
  Printf.bprintf b
    "  \"criteria\": { \"churn0_digest_identical\": %b, \"churn0_full_match\": %b, \
     \"smallest_churn_salvaged\": %b, \"salvage_beats_nojs_tts\": %b, \"decay_observed\": %b }\n"
    crit_digest crit_full_match crit_salvage crit_beats_nojs crit_decay;
  Printf.bprintf b "}\n";
  write_artifact ~tag:"churn"
    ~default:(if quick then "BENCH_churn.quick.json" else "BENCH_churn.json")
    (Buffer.contents b);
  if not (crit_digest && crit_full_match && crit_salvage && crit_beats_nojs && crit_decay)
  then begin
    prerr_endline "bench churn: acceptance criteria failed";
    exit 1
  end

(* ------------------------------------------- warmup statistics bench -- *)

(* Warmup statistics done right (Barrett et al. / krun): an N-seeds x
   2-configs matrix of rolling pushes with per-server latency recording,
   every server's binned latency series segmented with PELT changepoints
   and classified (warmup / flat / slowdown / cyclic / no steady state),
   then aggregated into fleet-level time-to-steady-state distributions
   with bootstrap CIs.  The run window deliberately closes shortly after
   the push: without Jump-Start servers are still re-warming when the
   window ends, so their final ("steady") segment is the elevated one and
   the classifier calls the run a slowdown or denies steady state; with
   Jump-Start the fleet recovers inside the window and the same seeds
   classify as warmup or flat.  Acceptance: classification is
   deterministic across a full matrix rerun, Jump-Start eliminates at
   least one pathological class (slowdown / no-steady-state) the baseline
   exhibits, and fleet mean time-to-steady improves with a CI clearing the
   5% band (verdict "improved", not merely not-regressed).  Writes
   BENCH_warmup.json (BENCH_warmup.quick.json under --quick). *)
let bench_warmup () =
  section "warmup: changepoint segmentation + warmup-taxonomy classification (js_exp)";
  let module H = Js_exp.Harness in
  let module C = Js_exp.Classify in
  let module G = Js_exp.Gate in
  let quick = !quick_mode in
  let n_servers = if quick then 12 else 24 in
  let warm_rps = 50. in
  let push_at = 60. in
  (* long enough that Jump-Started servers' steady onset lands well before
     the no-steady-state half-span mark, short enough that cold-restarted
     servers' does not *)
  let duration = 600. in
  let drain_cap = max 2 (n_servers / 6) in
  let bin = 5. in
  let base_fleet = Lazy.force fleet_base_cfg in
  let fleet =
    { base_fleet with
      Cluster.Fleet.n_servers;
      n_buckets = 4;
      seeders_per_bucket = 3;
      (* stretch the cold-boot path (sequential init + traffic ramp) so the
         no-Jump-Start recovery is unambiguously slower than the
         Jump-Started one: the class separation should rest on the modeled
         cold-start cost, not on a marginal span fraction *)
      server =
        { base_fleet.Cluster.Fleet.server with
          S.init_seconds_sequential = 60.;
          traffic_ramp_seconds = 150.
        }
    }
  in
  let base =
    { Js_sim.Region.default_config with
      Js_sim.Region.fleet;
      warm_rps;
      arrival =
        { Js_sim.Arrival.default_config with
          Js_sim.Arrival.base_rps = float_of_int n_servers *. warm_rps *. 0.7
        };
      push_at;
      drain_cap;
      duration;
      policy = Js_sim.Balancer.Random
    }
  in
  let nojs_cfg = { base with Js_sim.Region.jumpstart = false } in
  let app = Lazy.force fleet_app in
  let base_seed = bench_seed 1007 in
  let n_seeds = bench_seeds (if quick then 3 else 5) in
  let seeds = H.derive_seeds ~seed:base_seed ~n:n_seeds in
  let configs = [ ("nojs", H.of_push nojs_cfg app); ("js", H.of_push base app) ] in
  (* 8% equivalence band: the DES latency noise between load levels runs a
     shade over the default 5%, which would turn marginal warm segments
     into spurious late steady onsets.  Penalty factor 8 (double the
     default) and a 6-bin (30 s) minimum segment: a 15 s queueing blip
     carved out late in an otherwise-steady run — or worse, sitting at the
     very end and redefining the "steady" level — would deny steady state,
     so a level must persist 30 s to count as a segment; the genuine
     warmup/cold segments here span minutes and clear both bars by orders
     of magnitude. *)
  let classify =
    {
      C.changepoint = { Js_exp.Changepoint.penalty_factor = 8.0; min_segment = 6 };
      tolerance = 0.08;
      steady_frac = C.default_config.C.steady_frac
    }
  in
  let run_matrix () = H.run ~bin ~classify ~configs ~seeds () in
  let results = run_matrix () in
  (* classification determinism: the whole matrix, rerun, must classify
     byte-identically (run_result is all immutable scalars, so structural
     equality is exact) *)
  let deterministic = results = run_matrix () in
  let summaries = H.summarize results in
  let summ name = List.find (fun s -> s.H.s_config = name) summaries in
  let s_nojs = summ "nojs" and s_js = summ "js" in
  Printf.printf "matrix: %d seeds x 2 configs, %d classified server runs\n\n" n_seeds
    (List.length results);
  Printf.printf "%8s %6s %6s %8s %8s %6s %10s %22s %12s\n" "config" "warmup" "flat" "slowdown"
    "cyclic" "nss" "tts-mean" "tts-CI95" "steady-mean";
  List.iter
    (fun s ->
      let cnt c = List.assoc c s.H.counts in
      let lo, hi = s.H.tts_ci in
      Printf.printf "%8s %6d %6d %8d %8d %6d %10.1f %10.1f..%9.1f %12.4f\n" s.H.s_config
        (cnt C.Warmup) (cnt C.Flat) (cnt C.Slowdown) (cnt C.Cyclic) (cnt C.No_steady_state)
        s.H.tts_mean lo hi s.H.steady_mean)
    summaries;
  (* one line per pathological run so a failing criterion is diagnosable
     from the bench log alone *)
  List.iter
    (fun r ->
      match r.H.result.C.cls with
      | C.Slowdown | C.No_steady_state ->
        Printf.printf "  pathological: %s seed=%d server=%d %s tts=%.0f segments=[%s]\n"
          r.H.config r.H.seed r.H.server
          (C.cls_to_string r.H.result.C.cls)
          r.H.result.C.tts
          (String.concat "; "
             (List.map
                (fun (s : Js_exp.Changepoint.segment) ->
                  Printf.sprintf "%d..%d m=%.4f" s.Js_exp.Changepoint.start
                    s.Js_exp.Changepoint.stop s.Js_exp.Changepoint.mean)
                r.H.result.C.segments))
      | _ -> ())
    results;
  (* which pathological classes does the baseline exhibit that Jump-Start
     eliminates outright? *)
  let count s cls = List.assoc cls s.H.counts in
  let eliminated =
    List.filter
      (fun cls -> count s_nojs cls > 0 && count s_js cls = 0)
      [ C.Slowdown; C.No_steady_state ]
  in
  let crit_class_change = eliminated <> [] in
  (* CI-gated win: per-seed fleet mean time-to-steady, paired across the
     same replicate seeds.  All classified runs count — a run denied steady
     state carries its honestly-late steady onset, not an exclusion. *)
  let per_seed_mean_tts config =
    Array.map
      (fun seed ->
        let ts =
          List.filter_map
            (fun r ->
              if r.H.config = config && r.H.seed = seed then Some r.H.result.C.tts else None)
            results
        in
        Js_util.Stats.mean (Array.of_list ts))
      seeds
  in
  let gate_tts =
    G.compare_paired ~metric:"fleet_mean_time_to_steady" ~min_effect:0.05
      ~baseline:(per_seed_mean_tts "nojs") ~candidate:(per_seed_mean_tts "js") ()
  in
  let crit_tts_win = gate_tts.G.verdict = G.Improved in
  Printf.printf "\nsignificance gate (win required, not just no-regression):\n  %s\n"
    (Format.asprintf "%a" G.pp gate_tts);
  Printf.printf
    "\ncriteria: classification deterministic: %b | js eliminates pathology (%s): %b |\n\
    \          js tts CI win: %b\n"
    deterministic
    (if eliminated = [] then "none"
     else String.concat "," (List.map C.cls_to_string eliminated))
    crit_class_change crit_tts_win;
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\n";
  Printf.bprintf b "  \"schema\": \"jumpstart-bench-warmup/1\",\n";
  Printf.bprintf b "  \"quick\": %b,\n" quick;
  Printf.bprintf b
    "  \"config\": { \"servers\": %d, \"warm_rps\": %.0f, \"utilization\": 0.7, \
     \"duration\": %.0f, \"push_at\": %.0f, \"drain_cap\": %d, \"bin\": %.0f, \"seed\": %d, \
     \"seeds\": %d },\n"
    n_servers warm_rps duration push_at drain_cap bin base_seed n_seeds;
  Printf.bprintf b "  \"replicate_seeds\": [%s],\n"
    (String.concat ", " (Array.to_list (Array.map string_of_int seeds)));
  Printf.bprintf b "  \"configs\": [\n";
  let n_cfg = List.length summaries in
  List.iteri
    (fun i s ->
      let tlo, thi = s.H.tts_ci and slo, shi = s.H.steady_ci in
      Printf.bprintf b
        "    { \"name\": %S, \"runs\": %d,\n\
        \      \"classes\": { %s },\n\
        \      \"tts_mean\": %.3f, \"tts_ci\": [%.3f, %.3f],\n\
        \      \"steady_mean\": %.6f, \"steady_ci\": [%.6f, %.6f] }%s\n"
        s.H.s_config s.H.runs
        (String.concat ", "
           (List.map
              (fun (c, n) -> Printf.sprintf "\"%s\": %d" (C.cls_to_string c) n)
              s.H.counts))
        s.H.tts_mean tlo thi s.H.steady_mean slo shi
        (if i = n_cfg - 1 then "" else ","))
    summaries;
  Printf.bprintf b "  ],\n";
  let glo, ghi = gate_tts.G.ci in
  Printf.bprintf b
    "  \"gate\": { \"metric\": %S, \"n\": %d, \"baseline_mean\": %.3f, \
     \"candidate_mean\": %.3f,\n\
    \            \"effect\": %.6f, \"ci\": [%.6f, %.6f], \"min_effect\": %.6f, \
     \"verdict\": %S },\n"
    gate_tts.G.metric gate_tts.G.n gate_tts.G.baseline_mean gate_tts.G.candidate_mean
    gate_tts.G.effect glo ghi gate_tts.G.min_effect
    (G.verdict_to_string gate_tts.G.verdict);
  Printf.bprintf b "  \"eliminated_classes\": [%s],\n"
    (String.concat ", "
       (List.map (fun c -> Printf.sprintf "%S" (C.cls_to_string c)) eliminated));
  Printf.bprintf b
    "  \"criteria\": { \"classification_deterministic\": %b, \"js_eliminates_pathology\": %b, \
     \"js_tts_ci_win\": %b }\n"
    deterministic crit_class_change crit_tts_win;
  Printf.bprintf b "}\n";
  write_artifact ~tag:"warmup"
    ~default:(if quick then "BENCH_warmup.quick.json" else "BENCH_warmup.json")
    (Buffer.contents b);
  if not (deterministic && crit_class_change && crit_tts_win) then begin
    prerr_endline "bench warmup: acceptance criteria failed";
    exit 1
  end

(* ----------------------------------------------------------------- cli -- *)

let experiments =
  [ ("fig1", fig1); ("fig2", fig2); ("fig4a", fig4a); ("fig4b", fig4b); ("lifespan", lifespan);
    ("fig5", fig5);
    ("fig6", fig6); ("ablation-layout", ablation_layout); ("ablation-seeders", ablation_seeders);
    ("ablation-validation", ablation_validation); ("ablation-fallback", ablation_fallback);
    ("perf", perf); ("dist", ablation_dist); ("push", bench_push);
    ("warmup", bench_warmup); ("scale", bench_scale); ("churn", bench_churn)
  ]

let () =
  let all_args = Array.to_list Sys.argv |> List.tl in
  let rec strip_flags acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
      quick_mode := true;
      strip_flags acc rest
    | "--out" :: path :: rest ->
      out_path := Some path;
      strip_flags acc rest
    | "--seed" :: s :: rest ->
      (match int_of_string_opt s with
      | Some v -> seed_override := Some v
      | None ->
        Printf.eprintf "--seed expects an integer, got %S\n" s;
        exit 1);
      strip_flags acc rest
    | "--seeds" :: s :: rest ->
      (match int_of_string_opt s with
      | Some v when v >= 1 -> seeds_override := Some v
      | _ ->
        Printf.eprintf "--seeds expects a positive integer, got %S\n" s;
        exit 1);
      strip_flags acc rest
    | a :: rest -> strip_flags (a :: acc) rest
  in
  let args = strip_flags [] all_args in
  match args with
  | [ "list" ] ->
    sub "available experiments";
    List.iter (fun (name, _) -> print_endline name) experiments
  | [] ->
    Printf.printf "HHVM Jump-Start reproduction benches (all experiments)\n";
    List.iter (fun (_, f) -> f ()) experiments
  | names -> (
    (* reject a bad name (or a removed flag) before any experiment runs and
       rewrites its artifact *)
    match List.find_opt (fun name -> not (List.mem_assoc name experiments)) names with
    | Some name ->
      Printf.eprintf "unknown experiment %S; try 'list'\n" name;
      exit 1
    | None -> List.iter (fun name -> List.assoc name experiments ()) names)
