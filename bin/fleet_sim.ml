(* fleet_sim: drive the fleet/warmup simulators from the command line.

     dune exec bin/fleet_sim.exe -- warmup [--no-jumpstart] [--minutes N]
     dune exec bin/fleet_sim.exe -- push [--servers N] [--seeders N]
         [--bad-rate P] [--validation P] [--minutes N] [--telemetry text|json]

   `push` runs the macro fleet model; the request-level discrete-event
   simulation of a push is `push_sim`.  Invoked with no subcommand, runs
   `push` with its defaults, so `fleet_sim --telemetry json` dumps a
   machine-readable trace of a default push.  With `--telemetry json` the
   JSON document is the only output (the human-readable report is
   suppressed).
*)

open Cmdliner

module S = Cluster.Server
module Series = Js_util.Stats.Series

let minutes_arg =
  Arg.(value & opt int 10 & info [ "minutes" ] ~docv:"N" ~doc:"simulated duration in minutes")

let warmup_cmd =
  let no_js = Arg.(value & flag & info [ "no-jumpstart" ] ~doc:"disable Jump-Start") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"discovery seed") in
  let action no_js minutes seed =
    let app = Workload.Macro_app.generate Workload.Macro_app.default_params in
    let cfg = S.default_config in
    let role =
      if no_js then S.No_jumpstart
      else S.Consumer (S.make_package cfg app ~coverage_target:cfg.S.profile_request_target ())
    in
    let server = S.create ~discovery_seed:seed cfg app role in
    let until = float_of_int (minutes * 60) in
    S.run server ~until ~dt:1.;
    Printf.printf "%8s %10s %12s %12s\n" "sec" "rps/peak" "latency(ms)" "code(MB)";
    let steps = max 1 (minutes * 60 / 20) in
    let t = ref 0 in
    while !t <= minutes * 60 do
      let time = float_of_int !t in
      Printf.printf "%8d %10.2f %12.0f %12.0f\n" !t
        (Series.value_at (S.rps_series server) time /. S.peak_rps server)
        (1000. *. Series.value_at (S.latency_series server) time)
        (Series.value_at (S.code_series server) time /. 1e6);
      t := !t + steps
    done;
    Printf.printf "\ncapacity loss: %.1f%%\n"
      (100. *. Series.capacity_loss (S.rps_series server) ~peak:(S.peak_rps server) ~until)
  in
  Cmd.v
    (Cmd.info "warmup" ~doc:"single-server warmup curve (paper Figs. 1, 2, 4)")
    Term.(const action $ no_js $ minutes_arg $ seed)

let telemetry_arg =
  let fmt = Arg.enum [ ("text", `Text); ("json", `Json) ] in
  Arg.(
    value
    & opt (some fmt) None
    & info [ "telemetry" ] ~docv:"FMT"
        ~doc:"emit collected telemetry: $(b,text) appends a report, $(b,json) prints only the JSON document")

let push_term, push_cmd =
  let servers = Arg.(value & opt int 120 & info [ "servers" ] ~docv:"N" ~doc:"fleet size") in
  let seeders = Arg.(value & opt int 3 & info [ "seeders" ] ~docv:"N" ~doc:"seeders per bucket") in
  let bad_rate =
    Arg.(value & opt float 0. & info [ "bad-rate" ] ~docv:"P" ~doc:"bad-package probability")
  in
  let validation =
    Arg.(value & opt float 0.95 & info [ "validation" ] ~docv:"P" ~doc:"validation catch rate")
  in
  let verifier =
    Arg.(
      value
      & opt float 0.
      & info [ "verifier-catch-rate" ] ~docv:"P"
          ~doc:"static-verifier catch rate for bad packages (independent second gate; 0 = off)")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"simulation seed") in
  let fetch_fail =
    Arg.(
      value
      & opt float 0.
      & info [ "fetch-fail-rate" ] ~docv:"P"
          ~doc:"probability one package-fetch attempt fails transiently (0 = reliable network)")
  in
  let fetch_timeout =
    Arg.(
      value
      & opt float 0.
      & info [ "fetch-timeout" ] ~docv:"SEC"
          ~doc:
            "per-attempt fetch timeout in seconds; implies a latency distribution with mean \
             SEC/2 unless $(b,--fetch-latency) is given (0 = no timeouts)")
  in
  let fetch_latency =
    Arg.(
      value
      & opt (some float) None
      & info [ "fetch-latency" ] ~docv:"SEC" ~doc:"mean package-fetch latency in seconds")
  in
  let stale_rate =
    Arg.(
      value
      & opt float 0.
      & info [ "stale-rate" ] ~docv:"P"
          ~doc:"probability a replica serves a stale (previous-release) package")
  in
  let cross_region =
    Arg.(
      value & flag
      & info [ "cross-region" ]
          ~doc:"simulate 3 replica regions and allow cross-region fallback fetches")
  in
  let home_region =
    Arg.(
      value & opt int 0
      & info [ "home-region" ] ~docv:"R"
          ~doc:"replica region this fleet's consumers fetch from first (needs --cross-region)")
  in
  let action servers seeders bad_rate validation verifier minutes seed fetch_fail fetch_timeout
      fetch_latency stale_rate cross_region home_region telemetry_fmt =
    let app =
      Workload.Macro_app.generate
        { Workload.Macro_app.default_params with
          Workload.Macro_app.n_funcs = 6_000;
          core_funcs = 600;
          instrs_per_request = 30.0e6
        }
    in
    let dist =
      let latency_mean =
        match fetch_latency with
        | Some l -> l
        | None -> if fetch_timeout > 0. then fetch_timeout /. 2. else 0.
      in
      { Cluster.Dist_net.default_config with
        Cluster.Dist_net.fetch_fail_rate = fetch_fail;
        fetch_timeout;
        fetch_latency_mean = latency_mean;
        stale_rate;
        cross_region;
        regions = (if cross_region then 3 else 1)
      }
    in
    let cfg =
      { Cluster.Fleet.default_config with
        Cluster.Fleet.n_servers = servers;
        seeders_per_bucket = seeders;
        validation_catch_rate = validation;
        verifier_catch_rate = verifier;
        home_region;
        dist
      }
    in
    let tel =
      match telemetry_fmt with
      | None -> None
      | Some _ -> Some (Js_telemetry.create ())
    in
    let stats =
      Cluster.Fleet.simulate_push ?telemetry:tel cfg app ~seed ~bad_package_rate:bad_rate
        ~thin_profile_rate:0. ~duration:(float_of_int (minutes * 60))
    in
    match (telemetry_fmt, tel) with
    | Some `Json, Some t ->
      (* machine-readable mode: the JSON document is the entire output *)
      print_string (Js_telemetry.to_json t);
      print_newline ()
    | _ ->
      Format.printf "%a@." Cluster.Fleet.pp_stats stats;
      (let q = Js_util.Stats.Quantile.of_series stats.Cluster.Fleet.fleet_rps in
       if Js_util.Stats.Quantile.count q > 0 then
         Printf.printf "\nfleet RPS p50/p95/p99 = %.0f/%.0f/%.0f (peak %.0f)\n"
           (Js_util.Stats.Quantile.p50 q) (Js_util.Stats.Quantile.p95 q)
           (Js_util.Stats.Quantile.p99 q) stats.Cluster.Fleet.fleet_peak_rps);
      Printf.printf "\nfleet RPS (normalized to aggregate peak):\n";
      let until = minutes * 60 in
      let steps = max 1 (until / 15) in
      let t = ref steps in
      while !t <= until do
        Printf.printf "  t=%5ds %6.2f\n" !t
          (Series.value_at stats.Cluster.Fleet.fleet_rps (float_of_int !t)
          /. stats.Cluster.Fleet.fleet_peak_rps);
        t := !t + steps
      done;
      (match (telemetry_fmt, tel) with
      | Some `Text, Some t -> Format.printf "@.%a@." Js_telemetry.pp_text t
      | _ -> ())
  in
  let term =
    Term.(
      const action $ servers $ seeders $ bad_rate $ validation $ verifier $ minutes_arg $ seed
      $ fetch_fail $ fetch_timeout $ fetch_latency $ stale_rate $ cross_region $ home_region
      $ telemetry_arg)
  in
  ( term,
    Cmd.v
      (Cmd.info "push" ~doc:"continuous-deployment push across a fleet (C2 seeding + C3 restart)")
      term )

let () =
  let info = Cmd.info "fleet_sim" ~doc:"fleet and warmup simulations of the Jump-Start reproduction" in
  (* no subcommand = `push` with defaults, so `fleet_sim --telemetry json` works *)
  exit (Cmd.eval (Cmd.group ~default:push_term info [ warmup_cmd; push_cmd ]))
