(* push_sim: discrete-event traffic + deployment simulator.

     dune exec bin/push_sim.exe -- [--servers N] [--policy P] [--no-jumpstart]
         [--push-at SEC] [--duration SEC] [--bad-rate P] [--fetch-fail-rate P]
         [--telemetry text|json] [--classify --seeds N] ...

   Simulates an open-loop Poisson request stream over a warm fleet, then a
   staged rolling push (C2 seeding gates -> distribution network -> batched
   consumer restarts) and reports shed/latency/capacity statistics.  With
   `--telemetry json` the JSON document is the only output.  With
   `--classify` the run is repeated over `--seeds` replicate seeds and
   reported as per-server warmup classifications (Js_exp) instead. *)

open Cmdliner
module S = Cluster.Server
module Stats = Js_util.Stats

let app =
  lazy
    (Workload.Macro_app.generate
       { Workload.Macro_app.default_params with
         Workload.Macro_app.n_funcs = 6_000;
         core_funcs = 600;
         instrs_per_request = 30.0e6
       })

let server_cfg =
  { S.default_config with
    S.profile_request_target = 600;
    init_seconds_sequential = 30.;
    init_seconds_parallel = 12.;
    traffic_ramp_seconds = 90.;
    cold_decay_seconds = 40.
  }

let policy_arg =
  let policy_conv =
    Arg.enum
      (List.concat_map
         (fun p ->
           let canonical = Js_sim.Balancer.policy_to_string p in
           let dashed = String.map (fun c -> if c = '_' then '-' else c) canonical in
           if dashed = canonical then [ (canonical, p) ] else [ (canonical, p); (dashed, p) ])
         Js_sim.Balancer.all_policies)
  in
  Arg.(
    value
    & opt policy_conv Js_sim.Balancer.Warmup_weighted
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:
          "load-balancing policy: $(b,random), $(b,round_robin), $(b,least_outstanding) or \
           $(b,warmup_weighted)")

let telemetry_arg =
  let fmt = Arg.enum [ ("text", `Text); ("json", `Json) ] in
  Arg.(
    value
    & opt (some fmt) None
    & info [ "telemetry" ] ~docv:"FMT"
        ~doc:
          "emit collected telemetry: $(b,text) appends a report, $(b,json) prints only the \
           JSON document")

(* The simulator validates its config before it runs anything and rejects a
   bad one with [Invalid_argument]: report that as a usage error. *)
let or_usage_error f =
  match f () with
  | x -> x
  | exception Invalid_argument msg ->
    Printf.eprintf "push_sim: %s\n" msg;
    exit 2

let report ?(show_digest = false) stats =
  Format.printf "%a@." Js_sim.Region.pp_stats stats;
  let until =
    match Stats.Series.to_array stats.Js_sim.Region.capacity_series with
    | [||] -> 0.
    | a -> fst a.(Array.length a - 1)
  in
  if until > 0. then begin
    Printf.printf "\nestimated capacity / warm (and completion rate / warm):\n";
    let steps = Float.max 1. (Float.round (until /. 15.)) in
    let t = ref steps in
    while !t <= until do
      Printf.printf "  t=%5.0fs %6.2f  (%.2f)\n" !t
        (Stats.Series.value_at stats.Js_sim.Region.capacity_series !t
        /. stats.Js_sim.Region.fleet_warm_rps)
        (Stats.Series.value_at stats.Js_sim.Region.served_series !t
        /. stats.Js_sim.Region.fleet_warm_rps);
      t := !t +. steps
    done
  end;
  if show_digest then Printf.printf "\ndigest: %s\n" (Digest.to_hex (Digest.string (Js_sim.Region.digest stats)))

let report_global ?(show_digest = false) gs =
  Format.printf "%a@." Js_sim.Region.pp_global_stats gs;
  if show_digest then
    Printf.printf "\nglobal digest: %s\n"
      (Digest.to_hex (Digest.string (Js_sim.Region.global_digest gs)))

(* --classify: instead of one run's raw stats, run the config over --seeds
   replicate seeds with per-server latency recording and report the
   warmup-statistics view (Js_exp): every server's binned series segmented
   by changepoints and classified warmup/flat/slowdown/cyclic/nss, plus the
   fleet time-to-steady and steady-latency distributions with bootstrap
   CIs. *)
let report_classified cfg app ~seed ~n_seeds =
  let module H = Js_exp.Harness in
  let module C = Js_exp.Classify in
  let results =
    or_usage_error (fun () ->
        let seeds = H.derive_seeds ~seed ~n:n_seeds in
        H.run ~configs:[ ("push", H.of_push cfg app) ] ~seeds ())
  in
  let s = List.hd (H.summarize results) in
  Printf.printf "classified %d server runs over %d seed(s) (root seed %d)\n\n"
    s.H.runs n_seeds seed;
  Printf.printf "  %-16s %6s\n" "class" "runs";
  List.iter
    (fun (c, n) -> Printf.printf "  %-16s %6d\n" (C.cls_to_string c) n)
    s.H.counts;
  if s.H.tts_mean >= 0. then begin
    let lo, hi = s.H.tts_ci in
    Printf.printf "\ntime-to-steady over %d steady runs: mean %.1fs CI95 [%.1f, %.1f]\n"
      (Array.length s.H.tts) s.H.tts_mean lo hi
  end
  else Printf.printf "\ntime-to-steady: no run reached steady state\n";
  let lo, hi = s.H.steady_ci in
  Printf.printf "steady-state latency: mean %.4fs CI95 [%.4f, %.4f]\n" s.H.steady_mean lo hi;
  List.iter
    (fun r ->
      match r.H.result.C.cls with
      | C.Slowdown | C.Cyclic | C.No_steady_state ->
        Printf.printf "  pathological: seed=%d server=%d %s tts=%.0fs steady=%.4f\n" r.H.seed
          r.H.server
          (C.cls_to_string r.H.result.C.cls)
          r.H.result.C.tts r.H.result.C.steady_mean
      | C.Warmup | C.Flat -> ())
    results

let main servers buckets seeders warm_rps concurrency queue timeout utilization diurnal_amp
    diurnal_period policy no_jumpstart push_at drain_cap duration bad_rate thin_rate validation
    abort_window abort_threshold fetch_fail fetch_timeout fetch_latency stale_rate
    cross_region regions region_phase push_stagger spillover spill_latency spill_threshold
    epoch mode lose_region lose_at partition_region partition_at
    partition_duration seeder_outage seed n_seeds classify show_digest telemetry_fmt =
  let dist =
    let latency_mean =
      match fetch_latency with
      | Some l -> l
      | None -> if fetch_timeout > 0. then fetch_timeout /. 2. else 0.
    in
    { Cluster.Dist_net.default_config with
      Cluster.Dist_net.network =
        { Cluster.Dist_net.fetch_fail_rate = fetch_fail;
          fetch_timeout;
          latency_mean;
          stale_rate
        };
      regions = (if cross_region then 3 else 1)
    }
  in
  let fleet =
    { Cluster.Fleet.default_config with
      Cluster.Fleet.n_servers = servers;
      n_buckets = buckets;
      seeders_per_bucket = seeders;
      validation_catch_rate = validation;
      server = server_cfg;
      dist
    }
  in
  let cfg =
    { Js_sim.Region.default_config with
      Js_sim.Region.fleet;
      warm_rps;
      concurrency;
      queue_capacity = queue;
      request_timeout = timeout;
      arrival =
        { Js_sim.Arrival.base_rps = float_of_int servers *. warm_rps *. utilization;
          diurnal_amplitude = diurnal_amp;
          diurnal_period;
          phase = 0.
        };
      policy;
      jumpstart = not no_jumpstart;
      push_at;
      drain_cap;
      abort_window;
      abort_threshold;
      bad_package_rate = bad_rate;
      thin_profile_rate = thin_rate;
      duration
    }
  in
  let tel = match telemetry_fmt with None -> None | Some _ -> Some (Js_telemetry.create ()) in
  let disasters =
    (match lose_region with
    | Some r -> [ Js_sim.Region.Region_loss { region = r; at = lose_at } ]
    | None -> [])
    @ (match partition_region with
      | Some r ->
        [ Js_sim.Region.Dist_partition
            { region = r; at = partition_at; duration = partition_duration }
        ]
      | None -> [])
    @
    match seeder_outage with
    | Some at -> [ Js_sim.Region.Seeder_outage { at } ]
    | None -> []
  in
  let gcfg =
    { Js_sim.Region.default_global_config with
      Js_sim.Region.base = cfg;
      n_regions = regions;
      region_phase;
      push_stagger;
      spillover;
      spill_latency;
      spill_threshold;
      epoch;
      disasters
    }
  in
  (* one region reads none of the multi-region flags, but a bad one is
     still a usage error *)
  or_usage_error (fun () -> Js_sim.Region.validate_global gcfg);
  if classify then begin
    if regions <> 1 then begin
      prerr_endline "push_sim: --classify is single-region only (drop --regions)";
      exit 2
    end;
    report_classified cfg (Lazy.force app) ~seed ~n_seeds
  end
  else if regions = 1 then begin
    let stats =
      or_usage_error (fun () -> Js_sim.Region.run ?telemetry:tel cfg (Lazy.force app) ~seed)
    in
    match (telemetry_fmt, tel) with
    | Some `Json, Some t ->
      print_string (Js_telemetry.to_json t);
      print_newline ()
    | _ ->
      report ~show_digest stats;
      (match (telemetry_fmt, tel) with
      | Some `Text, Some t -> Format.printf "@.%a@." Js_telemetry.pp_text t
      | _ -> ())
  end
  else begin
    let gs =
      or_usage_error (fun () ->
          Js_sim.Region.run_global ?telemetry:tel ~mode gcfg (Lazy.force app) ~seed)
    in
    match (telemetry_fmt, tel) with
    | Some `Json, Some t ->
      print_string (Js_telemetry.to_json t);
      print_newline ()
    | _ ->
      report_global ~show_digest gs;
      (match (telemetry_fmt, tel) with
      | Some `Text, Some t -> Format.printf "@.%a@." Js_telemetry.pp_text t
      | _ -> ())
  end

let () =
  let open Arg in
  let servers = value & opt int 24 & info [ "servers" ] ~docv:"N" ~doc:"fleet size" in
  let buckets = value & opt int 4 & info [ "buckets" ] ~docv:"N" ~doc:"semantic buckets" in
  let seeders = value & opt int 3 & info [ "seeders" ] ~docv:"N" ~doc:"seeders per bucket" in
  let warm_rps =
    value & opt float 50. & info [ "warm-rps" ] ~docv:"RPS" ~doc:"per-server warm capacity"
  in
  let concurrency =
    value & opt int 8 & info [ "concurrency" ] ~docv:"N" ~doc:"worker slots per server"
  in
  let queue = value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc:"run-queue capacity" in
  let timeout =
    value & opt float 10. & info [ "timeout" ] ~docv:"SEC" ~doc:"request timeout (shed on dequeue)"
  in
  let utilization =
    value & opt float 0.7
    & info [ "utilization" ] ~docv:"U" ~doc:"offered load as a fraction of warm fleet capacity"
  in
  let diurnal_amp =
    value & opt float 0. & info [ "diurnal-amp" ] ~docv:"A" ~doc:"diurnal swing in [0,1)"
  in
  let diurnal_period =
    value & opt float 3600. & info [ "diurnal-period" ] ~docv:"SEC" ~doc:"diurnal cycle length"
  in
  let no_jumpstart =
    value & flag & info [ "no-jumpstart" ] ~doc:"push without Jump-Start packages (baseline)"
  in
  let push_at =
    value & opt float 120. & info [ "push-at" ] ~docv:"SEC" ~doc:"when the rolling push starts"
  in
  let drain_cap =
    value & opt int 4 & info [ "drain-cap" ] ~docv:"N" ~doc:"max servers draining concurrently"
  in
  let duration =
    value & opt float 900. & info [ "duration" ] ~docv:"SEC" ~doc:"simulated seconds"
  in
  let bad_rate =
    value & opt float 0. & info [ "bad-rate" ] ~docv:"P" ~doc:"bad-package probability"
  in
  let thin_rate =
    value & opt float 0. & info [ "thin-rate" ] ~docv:"P" ~doc:"thin-profile probability"
  in
  let validation =
    value & opt float 0.95 & info [ "validation" ] ~docv:"P" ~doc:"validation catch rate"
  in
  let abort_window =
    value & opt float 60. & info [ "abort-window" ] ~docv:"SEC" ~doc:"crash-spike window"
  in
  let abort_threshold =
    value & opt int 8
    & info [ "abort-threshold" ] ~docv:"N" ~doc:"crashes within the window that abort the push"
  in
  let fetch_fail =
    value & opt float 0.
    & info [ "fetch-fail-rate" ] ~docv:"P" ~doc:"probability one package-fetch attempt fails"
  in
  let fetch_timeout =
    value & opt float 0. & info [ "fetch-timeout" ] ~docv:"SEC" ~doc:"per-attempt fetch timeout"
  in
  let fetch_latency =
    value & opt (some float) None
    & info [ "fetch-latency" ] ~docv:"SEC" ~doc:"mean package-fetch latency"
  in
  let stale_rate =
    value & opt float 0.
    & info [ "stale-rate" ] ~docv:"P" ~doc:"probability a replica serves a stale package"
  in
  let cross_region =
    value & flag & info [ "cross-region" ] ~doc:"3 replica regions with cross-region fallback"
  in
  let regions =
    value & opt int 1 & info [ "regions" ] ~docv:"N" ~doc:"number of regions (each $(b,--servers) wide)"
  in
  let region_phase =
    value & opt float 0.
    & info [ "region-phase" ] ~docv:"SEC" ~doc:"diurnal phase offset between consecutive regions"
  in
  let push_stagger =
    value & opt float 0.
    & info [ "push-stagger" ] ~docv:"SEC" ~doc:"delay between consecutive regions' pushes"
  in
  let spillover =
    value & flag & info [ "spillover" ] ~doc:"route overflow arrivals to healthy foreign regions"
  in
  let spill_latency =
    value & opt float 60.
    & info [ "spill-latency" ] ~docv:"SEC" ~doc:"cross-region forwarding latency (>= --epoch)"
  in
  let spill_threshold =
    value & opt float 0.5
    & info [ "spill-threshold" ] ~docv:"F"
        ~doc:"accepting fraction below which marginal arrivals spill"
  in
  let epoch =
    value & opt float 30. & info [ "epoch" ] ~docv:"SEC" ~doc:"epoch-barrier interval"
  in
  let mode =
    value
    & opt (Arg.enum [ ("epoch", `Epoch); ("merged", `Merged) ]) `Epoch
    & info [ "mode" ] ~docv:"MODE"
        ~doc:
          "multi-region execution: $(b,epoch) (lockstep barriers, on as many OCaml domains as \
           the process has CPUs for, one per region at most) or $(b,merged) (one shared queue, \
           the reference); same digests"
  in
  let lose_region =
    value & opt (some int) None
    & info [ "lose-region" ] ~docv:"R" ~doc:"disaster: region R goes dark at --lose-at"
  in
  let lose_at =
    value & opt float 150. & info [ "lose-at" ] ~docv:"SEC" ~doc:"when --lose-region fires"
  in
  let partition_region =
    value & opt (some int) None
    & info [ "partition-region" ] ~docv:"R"
        ~doc:"disaster: region R is cut off from the dist net at --partition-at"
  in
  let partition_at =
    value & opt float 120.
    & info [ "partition-at" ] ~docv:"SEC" ~doc:"when --partition-region fires"
  in
  let partition_duration =
    value & opt float 120.
    & info [ "partition-duration" ] ~docv:"SEC" ~doc:"length of the dist-net partition"
  in
  let seeder_outage =
    value & opt (some float) None
    & info [ "seeder-outage-at" ] ~docv:"SEC"
        ~doc:"disaster: region 0's replica store goes down at SEC"
  in
  let seed = value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"simulation seed" in
  let n_seeds =
    value & opt int 3
    & info [ "seeds" ] ~docv:"N"
        ~doc:"replicate seeds for $(b,--classify), derived from $(b,--seed)"
  in
  let classify =
    value & flag
    & info [ "classify" ]
        ~doc:
          "report per-server warmup classifications (changepoint segmentation, \
           warmup/flat/slowdown/cyclic/no-steady-state) over $(b,--seeds) replicates instead \
           of raw run stats (single-region only)"
  in
  let show_digest =
    value & flag & info [ "digest" ] ~doc:"print a hash of the canonical stats digest"
  in
  let term =
    Term.(
      const main $ servers $ buckets $ seeders $ warm_rps $ concurrency $ queue $ timeout
      $ utilization $ diurnal_amp $ diurnal_period $ policy_arg $ no_jumpstart $ push_at
      $ drain_cap $ duration $ bad_rate $ thin_rate $ validation $ abort_window
      $ abort_threshold $ fetch_fail $ fetch_timeout $ fetch_latency $ stale_rate $ cross_region
      $ regions $ region_phase $ push_stagger $ spillover $ spill_latency $ spill_threshold
      $ epoch $ mode $ lose_region $ lose_at $ partition_region
      $ partition_at $ partition_duration $ seeder_outage $ seed $ n_seeds $ classify
      $ show_digest $ telemetry_arg)
  in
  let info =
    Cmd.info "push_sim"
      ~doc:"discrete-event simulation of traffic and rolling deployments over a Jump-Start fleet"
  in
  exit (Cmd.eval (Cmd.v info term))
