(* Discrete-event simulator tests: engine, arrivals, balancer policies,
   warmup curves, the rolling-push model and the §VI fleet reliability
   scenarios. *)

module Engine = Js_sim.Engine
module Arrival = Js_sim.Arrival
module Balancer = Js_sim.Balancer
module Warmup_curve = Js_sim.Warmup_curve
module Region = Js_sim.Region
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

(* --- engine --- *)

type flat_ev = Fnone | Mark of string | Cascade

let test_flat_engine_order () =
  let eng = Engine.create ~dummy:Fnone () in
  let fired = ref [] in
  let dispatch eng ev =
    match ev with
    | Mark tag -> fired := (tag, Engine.now eng) :: !fired
    | Fnone | Cascade -> Alcotest.fail "unexpected event"
  in
  Engine.schedule eng ~at:5. (Mark "c");
  Engine.schedule eng ~at:1. (Mark "a");
  Engine.schedule eng ~at:3. (Mark "b");
  Engine.schedule eng ~at:3. (Mark "b2");
  Engine.run eng ~until:10. ~dispatch;
  Alcotest.(check (list (pair string (float 1e-9))))
    "time order with fifo ties"
    [ ("a", 1.); ("b", 3.); ("b2", 3.); ("c", 5.) ]
    (List.rev !fired);
  Alcotest.(check (float 1e-9)) "clock at horizon" 10. (Engine.now eng);
  Alcotest.(check int) "dispatched" 4 (Engine.dispatched eng);
  Alcotest.(check int) "drained" 0 (Engine.pending eng)

let test_flat_engine_cascade_clamp_resume () =
  let eng = Engine.create ~dummy:Fnone () in
  let fired = ref [] in
  let dispatch eng ev =
    match ev with
    | Cascade ->
      (* events scheduled in the past fire at the current time, not before *)
      Engine.schedule eng ~at:1. (Mark "late");
      Engine.after eng ~delay:1. (Mark "next")
    | Mark tag -> fired := (tag, Engine.now eng) :: !fired
    | Fnone -> Alcotest.fail "dummy dispatched"
  in
  Engine.schedule eng ~at:2. Cascade;
  Engine.schedule eng ~at:8. (Mark "tail");
  Engine.run eng ~until:4. ~dispatch;
  Alcotest.(check (list (pair string (float 1e-9))))
    "clamped then cascaded, stops at until"
    [ ("late", 2.); ("next", 3.) ]
    (List.rev !fired);
  Alcotest.(check (float 1e-9)) "clock at barrier" 4. (Engine.now eng);
  Engine.run eng ~until:10. ~dispatch;
  Alcotest.(check (list (pair string (float 1e-9))))
    "resumed past barrier"
    [ ("late", 2.); ("next", 3.); ("tail", 8.) ]
    (List.rev !fired);
  Alcotest.check_raises "NaN rejected" (Invalid_argument "Engine.schedule: NaN time")
    (fun () -> Engine.schedule eng ~at:Float.nan Fnone)

let test_flat_engine_churn () =
  (* self-rescheduling sources: the queue stays small while dispatching many
     events, exercising the slot-pool reuse path *)
  let eng = Engine.create ~dummy:Fnone () in
  let count = ref 0 in
  let dispatch eng ev =
    match ev with
    | Mark _ ->
      incr count;
      if Engine.now eng < 999. then Engine.after eng ~delay:1. ev
    | Fnone | Cascade -> Alcotest.fail "unexpected event"
  in
  for i = 0 to 9 do
    Engine.schedule eng ~at:(float_of_int i /. 10.) (Mark (string_of_int i))
  done;
  Engine.run eng ~until:2000. ~dispatch;
  Alcotest.(check int) "all dispatched" 10_000 !count;
  Alcotest.(check int) "drained" 0 (Engine.pending eng)

let test_flat_engine_step_to () =
  (* the arrival-batching hooks: [horizon] exposes the active run's [until],
     [next_event_at] the queue head (infinity when empty), and [step_to]
     performs the clock/dispatch bookkeeping of an inline-consumed event *)
  let eng = Engine.create ~dummy:Fnone () in
  Alcotest.(check (float 1e-9)) "horizon before any run" 0. (Engine.horizon eng);
  Alcotest.(check bool) "empty queue head is infinity" true
    (Engine.next_event_at eng = infinity);
  let dispatch eng ev =
    match ev with
    | Mark "probe" ->
      Alcotest.(check (float 1e-9)) "horizon inside run" 10. (Engine.horizon eng);
      Alcotest.(check (float 1e-9)) "queue head visible" 7. (Engine.next_event_at eng);
      (* consume a synthetic event strictly before the queue head *)
      Engine.step_to eng ~at:5.;
      Alcotest.(check (float 1e-9)) "clock moved to the inline event" 5. (Engine.now eng)
    | Mark _ -> ()
    | Fnone | Cascade -> Alcotest.fail "unexpected event"
  in
  Engine.schedule eng ~at:2. (Mark "probe");
  Engine.schedule eng ~at:7. (Mark "tail");
  Engine.run eng ~until:10. ~dispatch;
  Alcotest.(check int) "inline step counted as dispatched" 3 (Engine.dispatched eng);
  (* step_to is monotone: stepping into the past leaves the clock alone *)
  Engine.step_to eng ~at:1.;
  Alcotest.(check (float 1e-9)) "no clock rewind" 10. (Engine.now eng);
  Alcotest.check_raises "NaN rejected" (Invalid_argument "Engine.step_to: NaN time")
    (fun () -> Engine.step_to eng ~at:Float.nan)

(* --- arrivals --- *)

let test_arrival_monotone_and_rate () =
  let cfg = { Arrival.base_rps = 50.; diurnal_amplitude = 0.; diurnal_period = 3600.; phase = 0. } in
  let a = Arrival.create cfg (Js_util.Rng.create 11) in
  let t = ref 0. and count = ref 0 in
  while !t < 200. do
    let next = Arrival.next a ~after:!t in
    Alcotest.(check bool) "strictly increasing" true (next > !t);
    t := next;
    incr count
  done;
  (* 50 rps over 200 s = 10_000 expected; Poisson sd ~ 100 *)
  Alcotest.(check bool)
    (Printf.sprintf "rate about 50 rps (got %d/200s)" !count)
    true
    (!count > 9_000 && !count < 11_000)

let test_arrival_diurnal_peak_rate () =
  let cfg = { Arrival.base_rps = 100.; diurnal_amplitude = 0.5; diurnal_period = 1000.; phase = 0. } in
  Alcotest.(check (float 1e-9)) "peak" 150. (Arrival.peak_rate cfg);
  Alcotest.(check (float 1e-6)) "crest" 150. (Arrival.rate_at cfg 250.);
  Alcotest.(check (float 1e-6)) "trough" 50. (Arrival.rate_at cfg 750.);
  (* a phase offset slides the whole curve: region at phase p sees at t what
     the base region sees at t + p *)
  let shifted = { cfg with Arrival.phase = 250. } in
  Alcotest.(check (float 1e-6)) "phase shifts crest" 150. (Arrival.rate_at shifted 0.);
  Alcotest.(check (float 1e-6)) "phase shifts trough" 50. (Arrival.rate_at shifted 500.);
  (* thinning must still produce roughly base_rps on average over a cycle *)
  let a = Arrival.create cfg (Js_util.Rng.create 3) in
  let t = ref 0. and count = ref 0 in
  while !t < 1000. do
    t := Arrival.next a ~after:!t;
    incr count
  done;
  Alcotest.(check bool)
    (Printf.sprintf "mean rate about 100 rps (got %d/1000s)" !count)
    true
    (!count > 90_000 && !count < 110_000)

(* 2 pi (t + phase) / period overflowed to infinity for a phase near
   max_float or a period near the subnormals: the rate went NaN and [next]'s
   thinning loop never accepted a candidate.  The rate must stay finite and
   on its envelope for every finite input. *)
let test_arrival_extreme_finite_settings () =
  let extremes = [ 0.; 1.; 1e-306; 4.9e-324; 1e300; 2.9e307; 1e308; Float.max_float ] in
  let grid = extremes @ List.map Float.neg extremes in
  List.iter
    (fun diurnal_period ->
      List.iter
        (fun phase ->
          List.iter
            (fun t ->
              let cfg =
                { Arrival.base_rps = 100.; diurnal_amplitude = 0.5; diurnal_period; phase }
              in
              let r = Arrival.rate_at cfg t in
              if not (Float.is_finite r && r >= 50. && r <= 150.) then
                Alcotest.failf "rate_at period %g phase %g t %g = %g" diurnal_period phase t r)
            grid)
        grid)
    (List.filter (fun p -> p > 0.) extremes);
  (* push_sim's two formerly hanging settings: a 1e-306 s period, and a
     1e308 s phase on a 3600 s period *)
  List.iter
    (fun (diurnal_period, phase) ->
      let cfg = { Arrival.base_rps = 50.; diurnal_amplitude = 0.5; diurnal_period; phase } in
      let a = Arrival.create cfg (Js_util.Rng.create 7) in
      let t = ref 60. in
      for _ = 1 to 1000 do
        let next = Arrival.next a ~after:!t in
        if not (next > !t && Float.is_finite next) then
          Alcotest.failf "period %g phase %g: next after %g = %g" diurnal_period phase !t next;
        t := next
      done)
    [ (1e-306, 0.); (3600., 1e308) ]

let test_arrival_validates () =
  Alcotest.check_raises "negative rate" (Invalid_argument "Arrival: base_rps must be positive")
    (fun () ->
      ignore
        (Arrival.create
           { Arrival.base_rps = -1.; diurnal_amplitude = 0.; diurnal_period = 1.; phase = 0. }
           (Js_util.Rng.create 1)));
  let create cfg () = ignore (Arrival.create cfg (Js_util.Rng.create 1)) in
  let cfg = { Arrival.default_config with Arrival.diurnal_amplitude = 0.5 } in
  Alcotest.check_raises "infinite phase" (Invalid_argument "Arrival: phase must be finite")
    (create { cfg with Arrival.phase = Float.infinity });
  Alcotest.check_raises "infinite period"
    (Invalid_argument "Arrival: diurnal_period must be positive and finite")
    (create { cfg with Arrival.diurnal_period = Float.infinity });
  Alcotest.check_raises "NaN amplitude"
    (Invalid_argument "Arrival: diurnal_amplitude must be in [0, 1)")
    (create { cfg with Arrival.diurnal_amplitude = Float.nan });
  Alcotest.check_raises "infinite rate" (Invalid_argument "Arrival: base_rps must be finite")
    (create { cfg with Arrival.base_rps = Float.infinity })

(* --- balancer --- *)

let test_balancer_least_outstanding () =
  let b = Balancer.create Balancer.Least_outstanding in
  let rng = Js_util.Rng.create 1 in
  let outstanding = [| 9; 5; 9; 2; 9; 9; 9; 1 |] in
  let picked =
    Balancer.pick b rng ~n:3 ~candidates:[| 3; 1; 7 |] ~outstanding ~weights:[||]
  in
  Alcotest.(check int) "argmin outstanding" 7 picked;
  (* the ~n prefix restricts the candidate set without rebuilding the array:
     server 7 (outstanding 1) is beyond the prefix, so server 3 (2) wins *)
  let picked2 =
    Balancer.pick b rng ~n:2 ~candidates:[| 3; 1; 7 |] ~outstanding ~weights:[||]
  in
  Alcotest.(check int) "argmin over prefix" 3 picked2

let test_balancer_round_robin_cycles () =
  let b = Balancer.create Balancer.Round_robin in
  let rng = Js_util.Rng.create 1 in
  let picks =
    List.init 6 (fun _ ->
        Balancer.pick b rng ~n:3 ~candidates:[| 4; 5; 6 |] ~outstanding:[||] ~weights:[||])
  in
  Alcotest.(check (list int)) "cycles candidates" [ 4; 5; 6; 4; 5; 6 ] picks

let test_balancer_weighted_prefers_capacity () =
  let b = Balancer.create Balancer.Warmup_weighted in
  let rng = Js_util.Rng.create 5 in
  let weights = [| 99.; 1. |] in
  let hits = Array.make 2 0 in
  for _ = 1 to 500 do
    let ix = Balancer.pick b rng ~n:2 ~candidates:[| 0; 1 |] ~outstanding:[||] ~weights in
    if ix >= 0 then hits.(ix) <- hits.(ix) + 1
  done;
  Alcotest.(check bool)
    (Printf.sprintf "hot server gets most traffic (%d/500)" hits.(0))
    true
    (hits.(0) > 450)

let test_balancer_empty () =
  let rng = Js_util.Rng.create 1 in
  List.iter
    (fun p ->
      let b = Balancer.create p in
      Alcotest.(check int)
        (Balancer.policy_to_string p ^ " empty")
        (-1)
        (Balancer.pick b rng ~n:0 ~candidates:[||] ~outstanding:[||] ~weights:[||]))
    Balancer.all_policies

let test_balancer_pick_region () =
  (* scans round-robin from the cursor, skipping home and down regions *)
  let up r = r <> 2 in
  (match Balancer.pick_region ~home:0 ~n_regions:4 ~cursor:0 ~up with
  | Some (r, cur) ->
    Alcotest.(check int) "first up foreign region" 1 r;
    Alcotest.(check int) "cursor advanced" 2 cur
  | None -> Alcotest.fail "expected a target");
  (match Balancer.pick_region ~home:0 ~n_regions:4 ~cursor:2 ~up with
  | Some (r, _) -> Alcotest.(check int) "skips down region" 3 r
  | None -> Alcotest.fail "expected a target");
  Alcotest.(check bool) "no target when all else down" true
    (Balancer.pick_region ~home:0 ~n_regions:4 ~cursor:0 ~up:(fun r -> r = 0) = None);
  Alcotest.(check bool) "single region has no foreign target" true
    (Balancer.pick_region ~home:0 ~n_regions:1 ~cursor:0 ~up:(fun _ -> true) = None)

let test_balancer_policy_names_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Balancer.policy_to_string p)
        true
        (Balancer.policy_of_string (Balancer.policy_to_string p) = Some p))
    Balancer.all_policies

(* --- warmup curves --- *)

let test_warmup_curve_shapes () =
  let app = Lazy.force small_app and cfg = Lazy.force small_cfg in
  let nojs = Warmup_curve.build ~horizon:1200. cfg app S.No_jumpstart in
  let pkg = S.make_package cfg app () in
  let consumer = Warmup_curve.build ~horizon:1200. cfg app (S.Consumer pkg) in
  (* cold servers are slower than warm ones, and the curve decays *)
  let cold = Warmup_curve.multiplier nojs ~served:0. in
  let warm = Warmup_curve.multiplier nojs ~served:(Warmup_curve.warm_served nojs) in
  Alcotest.(check bool)
    (Printf.sprintf "cold multiplier > warm (%.2f > %.2f)" cold warm)
    true (cold > warm);
  Alcotest.(check bool) "warm multiplier about 1" true (warm < 1.1);
  Alcotest.(check bool) "multiplier never below 1" true (warm >= 1.);
  (* Jump-Start consumers boot faster (parallel warmup, no seq requests) *)
  Alcotest.(check bool)
    (Printf.sprintf "consumer boots faster (%.0fs < %.0fs)"
       (Warmup_curve.boot_seconds consumer) (Warmup_curve.boot_seconds nojs))
    true
    (Warmup_curve.boot_seconds consumer < Warmup_curve.boot_seconds nojs);
  (* and their early-life multiplier is lower: optimized code from request 1 *)
  let cold_consumer = Warmup_curve.multiplier consumer ~served:0. in
  Alcotest.(check bool)
    (Printf.sprintf "consumer starts warmer (%.2f < %.2f)" cold_consumer cold)
    true (cold_consumer < cold)

let test_warmup_curve_cache_reuses () =
  let app = Lazy.force small_app and cfg = Lazy.force small_cfg in
  let cache = Warmup_curve.create_cache ~horizon:400. cfg app in
  let a = Warmup_curve.get cache S.No_jumpstart in
  let b = Warmup_curve.get cache S.No_jumpstart in
  Alcotest.(check bool) "no-js slot memoized" true (a == b);
  let pkg = S.make_package cfg app () in
  let c1 = Warmup_curve.get cache (S.Consumer pkg) in
  let c2 = Warmup_curve.get cache (S.Consumer pkg) in
  Alcotest.(check bool) "per-package slot memoized" true (c1 == c2);
  Alcotest.(check bool) "distinct from no-js" true (c1 != a)

(* --- push --- *)

let push_cfg =
  lazy
    (let fleet =
       { Cluster.Fleet.default_config with
         Cluster.Fleet.n_servers = 8;
         n_buckets = 2;
         seeders_per_bucket = 2;
         server = Lazy.force small_cfg
       }
     in
     { Region.default_config with
       Region.fleet;
       warm_rps = 30.;
       arrival =
         { Arrival.default_config with Arrival.base_rps = 8. *. 30. *. 0.7 };
       push_at = 40.;
       drain_cap = 2;
       duration = 240.;
       curve_horizon = 900.
     })

let test_push_conservation () =
  let stats = Region.run (Lazy.force push_cfg) (Lazy.force small_app) ~seed:1 in
  let shed =
    stats.Region.shed_queue_full + stats.Region.shed_timeout + stats.Region.shed_no_server
    + stats.Region.shed_drain
  in
  (* every arrival either completed, was shed, or is still in the system *)
  let in_system = stats.Region.arrived - stats.Region.completed - shed in
  Alcotest.(check bool)
    (Printf.sprintf "in-system requests bounded (%d)" in_system)
    true
    (in_system >= 0 && in_system <= 8 * (8 + 64));
  Alcotest.(check int) "every seeder published (2 buckets x 2 seeders)" 4
    stats.Region.packages_published;
  Alcotest.(check int) "everyone restarted jump-started" 8 stats.Region.jump_started;
  Alcotest.(check int) "no fallbacks" 0 stats.Region.fallbacks;
  Alcotest.(check int) "no crashes" 0 stats.Region.crashes;
  Alcotest.(check (array int)) "per-bucket jump-starts (8 servers / 2 buckets)" [| 4; 4 |]
    stats.Region.bucket_jump_started;
  Alcotest.(check (array int)) "no per-bucket fallbacks" [| 0; 0 |]
    stats.Region.bucket_fallbacks;
  Alcotest.(check bool) "push completed" true (stats.Region.push_done >= 0.);
  Alcotest.(check bool) "capacity recovered" true (stats.Region.time_to_full_capacity >= 0.);
  Alcotest.(check bool) "latency recorded" true
    (Js_util.Stats.Quantile.count stats.Region.latency > 0);
  Alcotest.(check bool) "push-window latency recorded" true
    (Js_util.Stats.Quantile.count stats.Region.latency_push > 0)

let test_push_jumpstart_beats_baseline () =
  let cfg = Lazy.force push_cfg in
  let app = Lazy.force small_app in
  let js = Region.run cfg app ~seed:7 in
  let nojs = Region.run { cfg with Region.jumpstart = false } app ~seed:7 in
  Alcotest.(check bool)
    (Printf.sprintf "smaller capacity loss (%.0f < %.0f)" js.Region.capacity_loss_integral
       nojs.Region.capacity_loss_integral)
    true
    (js.Region.capacity_loss_integral < nojs.Region.capacity_loss_integral);
  let ttfc s = if s.Region.time_to_full_capacity >= 0. then s.Region.time_to_full_capacity else infinity in
  Alcotest.(check bool) "faster back to full capacity" true (ttfc js < ttfc nojs);
  Alcotest.(check int) "baseline never jump-starts" 0 nojs.Region.jump_started

let test_push_deterministic () =
  let cfg = Lazy.force push_cfg in
  let app = Lazy.force small_app in
  let a = Region.run cfg app ~seed:3 and b = Region.run cfg app ~seed:3 in
  Alcotest.(check string) "same digest" (Region.digest a) (Region.digest b);
  let c = Region.run cfg app ~seed:4 in
  Alcotest.(check bool) "different seed differs" true (Region.digest a <> Region.digest c)

let test_push_pinned_digests () =
  (* one pinned run per policy: routing, service and the latency sketch
     must reproduce these runs to the last bit *)
  let app = Lazy.force small_app in
  List.iter
    (fun (policy, md5) ->
      let s = Region.run { (Lazy.force push_cfg) with Region.policy } app ~seed:3 in
      Alcotest.(check string) (Balancer.policy_to_string policy) md5
        (Digest.to_hex (Digest.string (Region.digest s))))
    [ (Balancer.Random, "5bb726dc95510a79a84603bc0827cc15");
      (Balancer.Round_robin, "e75df4a0be0a698e44f2ed8e1635b456");
      (Balancer.Least_outstanding, "1cde41d6d431ee32819d28b526af4f70");
      (Balancer.Warmup_weighted, "ec291b17864e76235942333be7217d04")
    ]

(* Minor words per dispatched event of a 16-server one-region push, setup
   included.  The per-event path reads cached capacities, routes over flat
   arrays, queues into float rings and draws from an unboxed generator;
   what it still allocates is event payloads and boxed floats crossing
   module boundaries. *)
let test_push_alloc_budget () =
  let app = Lazy.force small_app in
  let base = Lazy.force push_cfg in
  List.iter
    (fun policy ->
      let cfg =
        { base with
          Region.fleet = { base.Region.fleet with Cluster.Fleet.n_servers = 16 };
          arrival = { Arrival.default_config with Arrival.base_rps = 16. *. 30. *. 0.7 };
          policy;
          push_at = 60.;
          duration = 300.
        }
      in
      let w0 = Gc.minor_words () in
      let s = Region.run cfg app ~seed:3 in
      let words = (Gc.minor_words () -. w0) /. float_of_int s.Region.events_dispatched in
      Printf.printf "%s: %.1f minor words per event (%d events)\n"
        (Balancer.policy_to_string policy) words s.Region.events_dispatched;
      if words > 30. then
        Alcotest.failf "%s: %.1f minor words per event (budget 30)"
          (Balancer.policy_to_string policy) words)
    Balancer.all_policies

let test_push_record_latency_digest_neutral () =
  let cfg = Lazy.force push_cfg in
  let app = Lazy.force small_app in
  let off = Region.run cfg app ~seed:3 in
  let on_ = Region.run { cfg with Region.record_latency = true } app ~seed:3 in
  (* recording draws no randomness and is excluded from the digest: the
     simulation must be bit-for-bit unchanged *)
  Alcotest.(check string) "same digest with recording on" (Region.digest off) (Region.digest on_);
  Alcotest.(check int) "off: no per-server series" 0 (Array.length off.Region.server_latency);
  Alcotest.(check int) "on: one series per server" 8 (Array.length on_.Region.server_latency);
  let total =
    Array.fold_left
      (fun acc s -> acc + Js_util.Stats.Series.length s)
      0 on_.Region.server_latency
  in
  Alcotest.(check int) "per-server samples cover every completion" on_.Region.completed total;
  Array.iter
    (fun s ->
      let a = Js_util.Stats.Series.to_array s in
      Array.iter
        (fun (t, l) ->
          if t < 0. || t > 240. || l <= 0. then
            Alcotest.failf "sample out of range: t=%g latency=%g" t l)
        a)
    on_.Region.server_latency

let test_push_bad_packages_crash_and_guardrail () =
  let cfg = Lazy.force push_cfg in
  let app = Lazy.force small_app in
  let server =
    (* crash fast enough that the spike lands while restarts are pending *)
    { (Lazy.force small_cfg) with S.crash_delay_seconds = 5. }
  in
  let cfg =
    { cfg with
      Region.fleet =
        { cfg.Region.fleet with Cluster.Fleet.validation_catch_rate = 0.; server };
      bad_package_rate = 1.0;
      abort_window = 120.;
      abort_threshold = 2
    }
  in
  let stats = Region.run cfg app ~seed:2 in
  Alcotest.(check bool) "consumers crashed" true (stats.Region.crashes > 0);
  Alcotest.(check bool) "guardrail aborted the push" true stats.Region.aborted;
  Alcotest.(check int) "bucket fallback sum" stats.Region.fallbacks
    (Array.fold_left ( + ) 0 stats.Region.bucket_fallbacks)

let test_push_telemetry () =
  let tel = Js_telemetry.create () in
  let stats = Region.run ~telemetry:tel (Lazy.force push_cfg) (Lazy.force small_app) ~seed:1 in
  Alcotest.(check int) "sim.requests counter" stats.Region.arrived
    (Js_telemetry.counter tel "sim.requests");
  Alcotest.(check int) "sim.completed counter" stats.Region.completed
    (Js_telemetry.counter tel "sim.completed");
  Alcotest.(check int) "sim.jump_started counter" stats.Region.jump_started
    (Js_telemetry.counter tel "sim.jump_started");
  Alcotest.(check bool) "json exports" true
    (Js_telemetry.Json.parses (Js_telemetry.to_json tel))

(* --- §VI reliability: the whole fleet restarts at once --- *)

(* 40 servers in 4 buckets restart together at t = 0 (drain_cap = n_servers)
   under light load, with a 30 s crash delay.  Seeding, fetches and crashes
   draw only from the network stream, so the load does not change any
   outcome counter. *)
let restart_fleet =
  lazy
    { (Lazy.force push_cfg).Region.fleet with
      Cluster.Fleet.n_servers = 40;
      n_buckets = 4;
      seeders_per_bucket = 3;
      server = { (Lazy.force small_cfg) with S.crash_delay_seconds = 30. }
    }

let restart_all ?(duration = 300.) ?(bad_package_rate = 0.) ?(thin_profile_rate = 0.)
    ?bad_per_bucket fleet =
  { (Lazy.force push_cfg) with
    Region.fleet;
    arrival = { Arrival.default_config with Arrival.base_rps = 20. };
    push_at = 0.;
    drain_cap = fleet.Cluster.Fleet.n_servers;
    bad_package_rate;
    thin_profile_rate;
    bad_per_bucket;
    duration
  }

let run_with_telemetry cfg ~seed =
  let tel = Js_telemetry.create ~capacity:(1 lsl 16) () in
  let stats = Region.run ~telemetry:tel cfg (Lazy.force small_app) ~seed in
  Alcotest.(check int) "no telemetry event dropped" 0 (Js_telemetry.dropped_events tel);
  (stats, tel)

(* Crashes per 30 s restart round, from the run's [Server_crashed] events,
   in round order. *)
let crash_rounds tel =
  let rounds = Hashtbl.create 8 in
  List.iter
    (function
      | t, Js_telemetry.Server_crashed _ ->
        let round = int_of_float (Float.round (t /. 30.)) in
        Hashtbl.replace rounds round (1 + Option.value ~default:0 (Hashtbl.find_opt rounds round))
      | _ -> ())
    (Js_telemetry.events tel);
  List.sort compare (Hashtbl.fold (fun r n acc -> (r, n) :: acc) rounds [])

(* Estimated fleet capacity from [from] to the end of a run, lowest and
   highest. *)
let capacity_range stats ~from =
  Array.fold_left
    (fun (lo, hi) (t, v) -> if t >= from then (Float.min lo v, Float.max hi v) else (lo, hi))
    (infinity, neg_infinity)
    (Js_util.Stats.Series.to_array stats.Region.capacity_series)

let capacity_floor stats ~from = fst (capacity_range stats ~from)

let test_fleet_healthy_push () =
  let stats, _ = run_with_telemetry (restart_all (Lazy.force restart_fleet)) ~seed:1 in
  Alcotest.(check int) "all seeders published" 12 stats.Region.packages_published;
  Alcotest.(check int) "no crashes" 0 stats.Region.crashes;
  Alcotest.(check int) "no fallbacks" 0 stats.Region.fallbacks;
  Alcotest.(check int) "everyone jump-started" 40 stats.Region.jump_started;
  Alcotest.(check (array int)) "per-bucket jump-starts (40 servers / 4 buckets)"
    [| 10; 10; 10; 10 |] stats.Region.bucket_jump_started;
  Alcotest.(check (array int)) "no per-bucket fallbacks" [| 0; 0; 0; 0 |]
    stats.Region.bucket_fallbacks;
  let _, peak = capacity_range stats ~from:0. in
  Alcotest.(check bool) "fleet serves at end" true (capacity_floor stats ~from:240. > 0.5 *. peak)

let test_fleet_validation () =
  let fleet = { (Lazy.force restart_fleet) with Cluster.Fleet.validation_catch_rate = 1.0 } in
  let stats = Region.run (restart_all ~bad_package_rate:0.5 fleet) (Lazy.force small_app) ~seed:2 in
  Alcotest.(check int) "no bad package escapes" 0 stats.Region.bad_packages_published;
  Alcotest.(check bool) "some were rejected" true (stats.Region.packages_rejected > 0);
  Alcotest.(check int) "no crashes" 0 stats.Region.crashes

let test_fleet_thin_profiles_rejected () =
  let fleet = Lazy.force restart_fleet in
  let stats, tel = run_with_telemetry (restart_all ~thin_profile_rate:1.0 fleet) ~seed:5 in
  (* the coverage gate rejects every thin attempt; retries exhaust *)
  Alcotest.(check int) "nothing published" 0 stats.Region.packages_published;
  Alcotest.(check bool) "rejections recorded" true (stats.Region.packages_rejected > 0);
  Alcotest.(check int) "everyone fell back" 40 stats.Region.fallbacks;
  Alcotest.(check (list (pair string int))) "fallback reason"
    [ ("no profile package available", 40) ]
    (Js_telemetry.fallback_reasons tel)

let test_fleet_crash_decay () =
  (* one bad package per bucket among three: consumers that picked it crash,
     then recover through random re-picks, so later restart rounds crash no
     more servers than the first *)
  let fleet =
    { (Lazy.force restart_fleet) with
      Cluster.Fleet.validation_catch_rate = 0.;
      max_boot_attempts = 6
    }
  in
  let stats, tel = run_with_telemetry (restart_all ~bad_per_bucket:1 fleet) ~seed:3 in
  Alcotest.(check int) "forced seeding publishes every package" 12
    stats.Region.packages_published;
  Alcotest.(check int) "one bad package per bucket" 4 stats.Region.bad_packages_published;
  match crash_rounds tel with
  | [] -> Alcotest.fail "expected crashes with unvalidated bad packages"
  | (_, first) :: rest as all ->
    let last = List.fold_left (fun _ (_, n) -> n) first rest in
    Alcotest.(check bool)
      (Printf.sprintf "crash rounds shrink (first %d, last %d)" first last)
      true (last <= first);
    Alcotest.(check int) "every crash is in a round" stats.Region.crashes
      (List.fold_left (fun acc (_, n) -> acc + n) 0 all)

let test_fleet_fallback_bounds_damage () =
  (* every package bad and validation off: with fallback every consumer
     crashes twice, then boots without Jump-Start and stays up; without it
     the fleet crash-loops and still goes fully dark once per crash cycle *)
  let fleet ~fallback_enabled =
    { (Lazy.force restart_fleet) with
      Cluster.Fleet.validation_catch_rate = 0.;
      max_boot_attempts = 2;
      fallback_enabled
    }
  in
  let cfg fallback_enabled = restart_all ~bad_package_rate:1.0 (fleet ~fallback_enabled) in
  let stats = Region.run (cfg true) (Lazy.force small_app) ~seed:4 in
  Alcotest.(check int) "two crashes per server" 80 stats.Region.crashes;
  Alcotest.(check int) "every server fell back" 40 stats.Region.fallbacks;
  let sum = Array.fold_left ( + ) 0 in
  Alcotest.(check int) "per-bucket fallbacks sum to total" stats.Region.fallbacks
    (sum stats.Region.bucket_fallbacks);
  Alcotest.(check int) "per-bucket jump-starts sum to total" stats.Region.jump_started
    (sum stats.Region.bucket_jump_started);
  (* the last 60 s outlast one crash cycle: a 13 s boot plus the 30 s delay *)
  Alcotest.(check bool) "fleet recovers" true (capacity_floor stats ~from:240. > 0.);
  let looping = Region.run (cfg false) (Lazy.force small_app) ~seed:4 in
  Alcotest.(check int) "no fallback without the option" 0 looping.Region.fallbacks;
  Alcotest.(check bool) "crash loop outlasts the fallback ladder" true
    (looping.Region.crashes > stats.Region.crashes);
  Alcotest.(check (float 0.)) "crash-looping fleet goes dark" 0.
    (capacity_floor looping ~from:240.)

let dist_fleet dist = { (Lazy.force restart_fleet) with Cluster.Fleet.dist }

let ladder_holds (c : Cluster.Dist_net.counters) =
  c.Cluster.Dist_net.attempts
  = c.Cluster.Dist_net.deliveries + c.Cluster.Dist_net.failures + c.Cluster.Dist_net.timeouts
    + c.Cluster.Dist_net.stale_rejects + c.Cluster.Dist_net.empty_probes

let test_fleet_dist_faults_absorbed () =
  (* at 30% transient fetch failure plus timeouts, the retry/backoff ladder
     keeps (well over) 99% of servers jump-started *)
  let fleet =
    dist_fleet
      { Cluster.Dist_net.default_config with
        Cluster.Dist_net.network =
          { Jumpstart.Dist_store.fetch_fail_rate = 0.3;
            fetch_timeout = 1.0;
            latency_mean = 0.5;
            stale_rate = 0.
          }
      }
  in
  let stats = Region.run (restart_all fleet) (Lazy.force small_app) ~seed:21 in
  Alcotest.(check bool) ">=99% jump-started" true
    (float_of_int stats.Region.jump_started >= 0.99 *. 40.);
  Alcotest.(check int) "no crashes" 0 stats.Region.crashes;
  match stats.Region.dist with
  | None -> Alcotest.fail "active network must report counters"
  | Some c ->
    Alcotest.(check bool) "retries happened" true
      (c.Cluster.Dist_net.failures > 0
      && c.Cluster.Dist_net.attempts > c.Cluster.Dist_net.deliveries);
    Alcotest.(check bool) "ladder invariant" true (ladder_holds c)

let test_fleet_dist_outage_degrades () =
  (* a fully unreachable network: every server degrades to a no-Jump-Start
     boot, nobody crashes, the fleet still serves *)
  let fleet =
    dist_fleet
      { Cluster.Dist_net.default_config with
        Cluster.Dist_net.network =
          { Jumpstart.Dist_store.default_network with Jumpstart.Dist_store.fetch_fail_rate = 1.0 }
      }
  in
  let stats = Region.run (restart_all fleet) (Lazy.force small_app) ~seed:22 in
  Alcotest.(check int) "nobody jump-started" 0 stats.Region.jump_started;
  Alcotest.(check int) "everyone fell back" 40 stats.Region.fallbacks;
  Alcotest.(check int) "no crashes" 0 stats.Region.crashes;
  (match stats.Region.dist with
  | Some c -> Alcotest.(check int) "nothing delivered" 0 c.Cluster.Dist_net.deliveries
  | None -> Alcotest.fail "active network must report counters");
  Alcotest.(check bool) "fleet serves on fallback code" true (stats.Region.completed > 0)

(* Unvalidated bad packages in 40 % of seeding attempts. *)
let bad_push ~duration =
  restart_all ~duration ~bad_package_rate:0.4
    { (Lazy.force restart_fleet) with Cluster.Fleet.validation_catch_rate = 0. }

let test_fleet_telemetry_deterministic () =
  (* same seed, same config -> byte-identical telemetry documents *)
  let cfg = bad_push ~duration:400. in
  let stats1, tel1 = run_with_telemetry cfg ~seed:11 in
  let stats, tel = run_with_telemetry cfg ~seed:11 in
  Alcotest.(check string) "identical telemetry" (Js_telemetry.to_json tel1)
    (Js_telemetry.to_json tel);
  Alcotest.(check string) "identical digest" (Region.digest stats1) (Region.digest stats);
  (* the counters must agree with the stats the simulator itself reports *)
  Alcotest.(check int) "fallback counter consistent" stats.Region.fallbacks
    (Js_telemetry.counter tel "sim.fallbacks");
  Alcotest.(check int) "jump-start counter consistent" stats.Region.jump_started
    (Js_telemetry.counter tel "sim.jump_started");
  Alcotest.(check int) "one fallback reason per fallback" stats.Region.fallbacks
    (List.fold_left (fun acc (_, n) -> acc + n) 0 (Js_telemetry.fallback_reasons tel));
  (* every server booted at least once, so boot spans are recorded *)
  Alcotest.(check bool) "boot spans recorded" true (List.length (Js_telemetry.spans tel) >= 40)

let test_fleet_telemetry_crash_accounting () =
  let stats, tel = run_with_telemetry (bad_push ~duration:900.) ~seed:3 in
  Alcotest.(check bool) "bad packages crashed servers" true (stats.Region.crashes > 0);
  Alcotest.(check int) "crash counter matches stats" stats.Region.crashes
    (Js_telemetry.counter tel "sim.crashes");
  let rounds = crash_rounds tel in
  Alcotest.(check int) "one crash event per crash" stats.Region.crashes
    (List.fold_left (fun acc (_, n) -> acc + n) 0 rounds);
  (* the blast radius is the worst round; a round can crash each server once *)
  let blast = List.fold_left (fun acc (_, n) -> max acc n) 0 rounds in
  Alcotest.(check bool)
    (Printf.sprintf "blast radius within the fleet (%d)" blast)
    true
    (blast > 0 && blast <= 40)

(* --- multi-region --- *)

let global_cfg =
  lazy
    { Region.default_global_config with
      Region.base = Lazy.force push_cfg;
      n_regions = 3;
      region_phase = 300.;
      push_stagger = 30.;
      spillover = true;
      spill_latency = 20.;
      epoch = 20.
    }

(* region 0's phase is 0 * region_phase, NaN for an infinite offset: the
   offset itself must be rejected, by name *)
let test_arrival_rejects_infinite_region_phase () =
  let gcfg = { (Lazy.force global_cfg) with Region.region_phase = Float.infinity } in
  Alcotest.check_raises "infinite region_phase"
    (Invalid_argument "Region: region_phase must be finite and >= 0") (fun () ->
      ignore (Region.run_global gcfg (Lazy.force small_app) ~seed:1))

let test_multiregion_region_loss () =
  let gcfg =
    { (Lazy.force global_cfg) with
      Region.disasters = [ Region.Region_loss { region = 1; at = 100. } ]
    }
  in
  let gs = Region.run_global gcfg (Lazy.force small_app) ~seed:5 in
  let r = gs.Region.g_regions in
  Alcotest.(check int) "three regions" 3 (Array.length r);
  Alcotest.(check bool) "region 1 lost" true r.(1).Region.lost;
  Alcotest.(check bool) "others not lost" true
    ((not r.(0).Region.lost) && not r.(2).Region.lost);
  (* a region loss drains servers via generation bumps — never crashes *)
  Array.iter (fun s -> Alcotest.(check int) "zero crashes" 0 s.Region.crashes) r;
  Alcotest.(check bool)
    (Printf.sprintf "lost region spills its load out (%d)" r.(1).Region.spilled_out)
    true
    (r.(1).Region.spilled_out > 0);
  let spilled_in = Array.fold_left (fun a s -> a + s.Region.spilled_in) 0 r in
  Alcotest.(check bool)
    (Printf.sprintf "surviving regions absorb spills (%d)" spilled_in)
    true (spilled_in > 0);
  Alcotest.(check bool) "global spill total" true (gs.Region.g_spilled > 0);
  (* seeding runs in region 0 only *)
  Alcotest.(check bool) "seeder region published" true (r.(0).Region.packages_published > 0);
  Alcotest.(check int) "non-seeder regions do not publish" 0 r.(2).Region.packages_published;
  (* pinned: the simulator's per-event path may change, the run may not *)
  Alcotest.(check string) "pinned global digest" "45d1a744747600d24ed2d4e26e353966"
    (Digest.to_hex (Digest.string (Region.global_digest gs)))

let test_multiregion_epoch_equals_merged () =
  let gcfg = Lazy.force global_cfg in
  let app = Lazy.force small_app in
  let epoch = Region.run_global ~mode:`Epoch gcfg app ~seed:11 in
  let merged = Region.run_global ~mode:`Merged gcfg app ~seed:11 in
  Alcotest.(check string) "epoch-barrier run == merged run"
    (Region.global_digest merged) (Region.global_digest epoch);
  let epoch2 = Region.run_global ~mode:`Epoch gcfg app ~seed:11 in
  Alcotest.(check string) "same seed reproduces" (Region.global_digest epoch)
    (Region.global_digest epoch2);
  let other = Region.run_global ~mode:`Epoch gcfg app ~seed:12 in
  Alcotest.(check bool) "different seed differs" true
    (Region.global_digest epoch <> Region.global_digest other)

let test_multiregion_parallel_equals_epoch () =
  (* the parallel tentpole under fire: a region loss mid-push on concurrent
     domains must reproduce the sequential epoch-barrier digest exactly, for
     any domain count (1 = sequential replay; 4 clamps to n_regions = 3) *)
  let gcfg =
    { (Lazy.force global_cfg) with
      Region.disasters = [ Region.Region_loss { region = 1; at = 100. } ]
    }
  in
  let app = Lazy.force small_app in
  let e = Region.global_digest (Region.run_global ~mode:`Epoch gcfg app ~seed:5) in
  List.iter
    (fun domains ->
      let p = Region.run_global ~mode:(`Parallel domains) gcfg app ~seed:5 in
      Alcotest.(check string)
        (Printf.sprintf "parallel(%d) digest == epoch" domains)
        e (Region.global_digest p);
      Array.iter
        (fun s -> Alcotest.(check int) "zero crashes" 0 s.Region.crashes)
        p.Region.g_regions)
    [ 1; 2; 4 ]

let test_multiregion_batching_digest_neutral () =
  (* arrival batching is a pure fast path: turning it off must not move a
     single byte of the digest, in either execution mode *)
  let gcfg = Lazy.force global_cfg in
  let app = Lazy.force small_app in
  let off = { gcfg with Region.batch = false } in
  Alcotest.(check string) "epoch: batch on == off"
    (Region.global_digest (Region.run_global ~mode:`Epoch off app ~seed:11))
    (Region.global_digest (Region.run_global ~mode:`Epoch gcfg app ~seed:11));
  Alcotest.(check string) "parallel: batch on == off"
    (Region.global_digest (Region.run_global ~mode:(`Parallel 2) off app ~seed:11))
    (Region.global_digest (Region.run_global ~mode:(`Parallel 2) gcfg app ~seed:11))

let test_multiregion_validates () =
  let gcfg = { (Lazy.force global_cfg) with Region.spill_latency = 5.; epoch = 20. } in
  Alcotest.check_raises "spill latency below epoch"
    (Invalid_argument "Region: spill_latency must be >= epoch") (fun () ->
      ignore (Region.run_global gcfg (Lazy.force small_app) ~seed:1));
  (* a bucket index is taken per server: zero buckets must be a config
     error, not an out-of-bounds access mid-run *)
  List.iter
    (fun n_buckets ->
      let base = Lazy.force push_cfg in
      let base =
        { base with Region.fleet = { base.Region.fleet with Cluster.Fleet.n_buckets } }
      in
      Alcotest.check_raises
        (Printf.sprintf "%d buckets" n_buckets)
        (Invalid_argument "Region: fleet.n_buckets must be >= 1") (fun () ->
          ignore
            (Region.run_global { (Lazy.force global_cfg) with Region.base } (Lazy.force small_app)
               ~seed:1)))
    [ 0; -1 ];
  (* the fault record comes from CLI flags: NaN, a rate outside [0, 1] or a
     negative or infinite time must be a config error, not a silently
     fault-free run or infinite fetch delays in the event engine *)
  let n = Jumpstart.Dist_store.default_network in
  List.iter
    (fun (network, msg) ->
      let base = Lazy.force push_cfg in
      let dist = { base.Region.fleet.Cluster.Fleet.dist with Cluster.Dist_net.network } in
      let base = { base with Region.fleet = { base.Region.fleet with Cluster.Fleet.dist } } in
      Alcotest.check_raises msg (Invalid_argument ("Dist_store: " ^ msg)) (fun () ->
          ignore
            (Region.run_global { (Lazy.force global_cfg) with Region.base } (Lazy.force small_app)
               ~seed:1)))
    [ ({ n with fetch_fail_rate = Float.nan }, "fetch_fail_rate must be in [0, 1]");
      ({ n with stale_rate = Float.nan }, "stale_rate must be in [0, 1]");
      ({ n with latency_mean = -1. }, "latency_mean must be finite and >= 0");
      ({ n with fetch_timeout = -1. }, "fetch_timeout must be finite and >= 0");
      ({ n with fetch_fail_rate = -0.5 }, "fetch_fail_rate must be in [0, 1]");
      ({ n with fetch_fail_rate = 2. }, "fetch_fail_rate must be in [0, 1]");
      ({ n with stale_rate = 1.5 }, "stale_rate must be in [0, 1]");
      ({ n with latency_mean = Float.infinity }, "latency_mean must be finite and >= 0");
      ({ n with fetch_timeout = Float.infinity }, "fetch_timeout must be finite and >= 0")
    ]

(* Non-finite times slip past ordered comparisons (NaN fails all of them), so
   without an explicit finiteness check a NaN duration ran to all-NaN stats,
   a NaN or infinite one never reached the last barrier, and a NaN push_at
   died inside the engine.  Each must be a config error up front. *)
let check_rejects name msg run =
  Alcotest.check_raises name (Invalid_argument msg) (fun () -> ignore (run ()))

let test_rejects_nan_duration () =
  let cfg = { (Lazy.force push_cfg) with Region.duration = Float.nan } in
  check_rejects "nan duration" "Region: duration must be finite" (fun () ->
      Region.run cfg (Lazy.force small_app) ~seed:1)

let barrier_run base =
  let gcfg =
    { Region.default_global_config with Region.base; n_regions = 2; epoch = 15. }
  in
  fun () -> Region.run_global ~mode:`Epoch gcfg (Lazy.force small_app) ~seed:1

let test_rejects_nan_duration_barrier () =
  let base = { (Lazy.force push_cfg) with Region.duration = Float.nan } in
  check_rejects "nan duration, 2 regions" "Region: duration must be finite"
    (barrier_run base)

let test_rejects_inf_duration_barrier () =
  let base = { (Lazy.force push_cfg) with Region.duration = Float.infinity } in
  check_rejects "infinite duration, 2 regions" "Region: duration must be finite"
    (barrier_run base)

let test_rejects_nan_push_at () =
  let cfg = { (Lazy.force push_cfg) with Region.push_at = Float.nan } in
  check_rejects "nan push_at" "Region: push_at must be finite" (fun () ->
      Region.run cfg (Lazy.force small_app) ~seed:1)

let test_rejects_non_finite_tick () =
  List.iter
    (fun tick ->
      let cfg = { (Lazy.force push_cfg) with Region.tick } in
      check_rejects
        (Printf.sprintf "tick %g" tick)
        "Region: tick must be positive and finite"
        (fun () -> Region.run cfg (Lazy.force small_app) ~seed:1))
    [ Float.nan; Float.infinity ]

let () =
  Alcotest.run "sim"
    [ ( "engine",
        [ Alcotest.test_case "flat: order + fifo ties" `Quick test_flat_engine_order;
          Alcotest.test_case "flat: cascade/clamp/resume" `Quick
            test_flat_engine_cascade_clamp_resume;
          Alcotest.test_case "flat: slot-pool churn" `Quick test_flat_engine_churn;
          Alcotest.test_case "flat: step_to/horizon/next_event_at" `Quick
            test_flat_engine_step_to
        ] );
      ( "arrival",
        [ Alcotest.test_case "monotone, correct rate" `Quick test_arrival_monotone_and_rate;
          Alcotest.test_case "diurnal curve" `Quick test_arrival_diurnal_peak_rate;
          Alcotest.test_case "validation" `Quick test_arrival_validates;
          Alcotest.test_case "extreme finite settings" `Quick
            test_arrival_extreme_finite_settings;
          Alcotest.test_case "infinite region phase" `Quick
            test_arrival_rejects_infinite_region_phase
        ] );
      ( "balancer",
        [ Alcotest.test_case "least outstanding" `Quick test_balancer_least_outstanding;
          Alcotest.test_case "round robin" `Quick test_balancer_round_robin_cycles;
          Alcotest.test_case "warmup weighted" `Quick test_balancer_weighted_prefers_capacity;
          Alcotest.test_case "empty candidates" `Quick test_balancer_empty;
          Alcotest.test_case "policy names" `Quick test_balancer_policy_names_roundtrip;
          Alcotest.test_case "pick_region round-robin" `Quick test_balancer_pick_region
        ] );
      ( "warmup curve",
        [ Alcotest.test_case "shapes" `Quick test_warmup_curve_shapes;
          Alcotest.test_case "cache" `Quick test_warmup_curve_cache_reuses
        ] );
      ( "push",
        [ Alcotest.test_case "conservation + smoke" `Quick test_push_conservation;
          Alcotest.test_case "jump-start beats baseline" `Quick
            test_push_jumpstart_beats_baseline;
          Alcotest.test_case "deterministic" `Quick test_push_deterministic;
          Alcotest.test_case "pinned digest per policy" `Quick test_push_pinned_digests;
          Alcotest.test_case "allocation budget" `Quick test_push_alloc_budget;
          Alcotest.test_case "latency recording digest-neutral" `Quick
            test_push_record_latency_digest_neutral;
          Alcotest.test_case "bad packages + guardrail" `Quick
            test_push_bad_packages_crash_and_guardrail;
          Alcotest.test_case "telemetry" `Quick test_push_telemetry
        ] );
      ( "fleet",
        [ Alcotest.test_case "healthy push" `Quick test_fleet_healthy_push;
          Alcotest.test_case "validation" `Quick test_fleet_validation;
          Alcotest.test_case "crash decay" `Quick test_fleet_crash_decay;
          Alcotest.test_case "fallback bounds damage" `Quick test_fleet_fallback_bounds_damage;
          Alcotest.test_case "thin profiles rejected" `Quick test_fleet_thin_profiles_rejected;
          Alcotest.test_case "telemetry deterministic" `Quick test_fleet_telemetry_deterministic;
          Alcotest.test_case "dist faults absorbed" `Quick test_fleet_dist_faults_absorbed;
          Alcotest.test_case "dist outage degrades" `Quick test_fleet_dist_outage_degrades;
          Alcotest.test_case "telemetry crash accounting" `Quick
            test_fleet_telemetry_crash_accounting
        ] );
      ( "region",
        [ Alcotest.test_case "region loss spills, never crashes" `Quick
            test_multiregion_region_loss;
          Alcotest.test_case "epoch == merged digest" `Quick
            test_multiregion_epoch_equals_merged;
          Alcotest.test_case "parallel == epoch digest under region loss" `Quick
            test_multiregion_parallel_equals_epoch;
          Alcotest.test_case "arrival batching digest-neutral" `Quick
            test_multiregion_batching_digest_neutral;
          Alcotest.test_case "validation" `Quick test_multiregion_validates;
          Alcotest.test_case "rejects nan duration" `Quick test_rejects_nan_duration;
          Alcotest.test_case "rejects nan duration in a barrier run" `Quick
            test_rejects_nan_duration_barrier;
          Alcotest.test_case "rejects infinite duration in a barrier run" `Quick
            test_rejects_inf_duration_barrier;
          Alcotest.test_case "rejects nan push_at" `Quick test_rejects_nan_push_at;
          Alcotest.test_case "rejects non-finite tick" `Quick test_rejects_non_finite_tick
        ] )
    ]
