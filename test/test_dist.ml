(* The delivery layer: the consumer's one store pick behind the fingerprint
   gate (Jumpstart.Dist_store), the fleet's fault model and fetch ladder
   (Cluster.Dist_net), checked against the ladder it replaced (Dist_ref), and
   the consumer boot over the store. *)

module JS = Jumpstart
module DS = JS.Dist_store
module DN = Cluster.Dist_net
module R = Js_util.Rng
module Req = Workload.Request

let app = lazy (Workload.Codegen.generate Workload.App_spec.tiny)

let traffic ?(on = Lazy.force app) ?(seed = 1) ?(n = 200) () =
  let mix = Req.mix on ~region:0 ~bucket:0 in
  fun engine ->
    let rng = R.create seed in
    for _ = 1 to n do
      ignore (Req.invoke engine on (Req.sample rng mix))
    done

let make_package ?(on = Lazy.force app) () =
  let options = { JS.Options.default with JS.Options.validate_packages = false } in
  match
    JS.Seeder.run on.Workload.Codegen.repo options ~profile_traffic:(traffic ~on ~seed:1 ())
      ~optimized_traffic:(traffic ~on ~seed:2 ()) ~region:0 ~bucket:3 ~seeder_id:7 ()
  with
  | Ok outcome -> outcome
  | Error msg -> Alcotest.failf "seeder failed: %s" msg

let seeded_store () =
  let outcome = make_package () in
  let store = JS.Store.create () in
  JS.Store.publish store ~region:0 ~bucket:3 outcome.JS.Seeder.bytes
    outcome.JS.Seeder.package.JS.Package.meta;
  store

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --- micro: Dist_store --- *)

let test_neutral_passthrough () =
  (* a fetch consumes exactly the one selection draw Store itself performs
     and records no ladder telemetry *)
  let store = seeded_store () in
  let ds = DS.create store in
  let tel = Js_telemetry.create () in
  let rng = R.create 4 in
  let witness = R.copy rng in
  (match DS.fetch ~telemetry:tel ds rng ~region:0 ~bucket:3 with
  | DS.Delivered _ -> ()
  | _ -> Alcotest.fail "expected Delivered");
  ignore (JS.Store.pick_random store witness ~region:0 ~bucket:3);
  Alcotest.(check int64) "exactly one selection draw" (R.bits64 witness) (R.bits64 rng);
  Alcotest.(check int) "one store pick" 1 (Js_telemetry.counter tel "store.picks");
  Alcotest.(check int) "no attempt count" 0 (Js_telemetry.counter tel "dist.fetch_attempts");
  Alcotest.(check bool) "no latency sample" false
    (List.mem_assoc "dist.fetch_seconds" (Js_telemetry.histograms tel))

let test_no_package_verdict () =
  (* an empty bucket is No_package: there is just nothing to fetch *)
  let ds = DS.create (JS.Store.create ()) in
  match DS.fetch ds (R.create 1) ~region:0 ~bucket:3 with
  | DS.No_package -> ()
  | _ -> Alcotest.fail "expected No_package"

let test_fingerprint_gate () =
  let a = Lazy.force app in
  let other =
    Workload.Codegen.generate { Workload.App_spec.tiny with Workload.App_spec.seed = 43 }
  in
  Alcotest.(check bool) "distinct builds hash differently" true
    (Hhbc.Repo.fingerprint a.Workload.Codegen.repo
    <> Hhbc.Repo.fingerprint other.Workload.Codegen.repo);
  let store = seeded_store () in
  let ds = DS.create ~repo:other.Workload.Codegen.repo store in
  let tel = Js_telemetry.create () in
  (match DS.fetch ~telemetry:tel ds (R.create 1) ~region:0 ~bucket:3 with
  | DS.Rejected { reason; _ } ->
    Alcotest.(check bool) "mismatch reported" true (contains reason "fingerprint")
  | _ -> Alcotest.fail "expected Rejected");
  (* a gate reject reports, with its kind *)
  Alcotest.(check int) "stale_rejects" 1 (Js_telemetry.counter tel "dist.stale_rejects");
  Alcotest.(check int) "fingerprint_mismatch" 1
    (Js_telemetry.counter tel "dist.fingerprint_mismatch");
  (* the matching build passes the gate *)
  let ds_ok = DS.create ~repo:a.Workload.Codegen.repo store in
  match DS.fetch ds_ok (R.create 1) ~region:0 ~bucket:3 with
  | DS.Delivered _ -> ()
  | _ -> Alcotest.fail "matching fingerprint must deliver"

(* --- the consumer boot over the store --- *)

let test_boot_dist_jump_starts () =
  let a = Lazy.force app in
  let store = seeded_store () in
  let ds = DS.create ~repo:a.Workload.Codegen.repo store in
  match
    JS.Consumer.boot_dist a.Workload.Codegen.repo JS.Options.default ds (R.create 2) ~region:0
      ~bucket:3 ~fallback_traffic:(traffic ~seed:9 ()) ()
  with
  | JS.Consumer.Jump_started _ -> ()
  | JS.Consumer.Fell_back (_, reason) -> Alcotest.failf "fell back: %s" reason

let test_boot_dist_stale_burns_attempts () =
  (* with salvage disabled, gate rejects feed the consumer's bounded-retry
     machinery: all attempts burn on stale packages, then the boot falls
     back (the salvage-on behaviour is covered in test_churn.ml) *)
  let a = Lazy.force app in
  let other =
    Workload.Codegen.generate { Workload.App_spec.tiny with Workload.App_spec.seed = 43 }
  in
  let store = seeded_store () in
  let ds = DS.create ~repo:other.Workload.Codegen.repo store in
  let tel = Js_telemetry.create () in
  let options = { JS.Options.default with JS.Options.salvage_stale = false } in
  match
    JS.Consumer.boot_dist ~telemetry:tel a.Workload.Codegen.repo options ds
      (R.create 2) ~region:0 ~bucket:3 ~fallback_traffic:(traffic ~seed:9 ()) ()
  with
  | JS.Consumer.Fell_back _ ->
    Alcotest.(check int) "every boot attempt burned" options.JS.Options.max_boot_attempts
      (Js_telemetry.counter tel "consumer.boot_attempts");
    Alcotest.(check bool) "gate rejects counted" true
      (Js_telemetry.counter tel "dist.stale_rejects" >= 1);
    Alcotest.(check int) "split counter attributes the kind"
      (Js_telemetry.counter tel "dist.stale_rejects")
      (Js_telemetry.counter tel "dist.fingerprint_mismatch")
  | JS.Consumer.Jump_started _ -> Alcotest.fail "stale packages must not jump-start"

(* One store holds a package seeded on the consumer's own build and one
   seeded on a churned build; the corrupted variant also flips a payload
   byte of one of them.  Sixteen boots (both variants, salvage on and off,
   rng seeds 1-4) cover an exact jump-start, a salvaged one, fingerprint
   rejects that use up every attempt, and CRC failures.  The MD5 over each
   boot's outcome, telemetry document and next rng draw was computed while
   the store still ran its own fault model; it pins every draw, reject and
   fallback reason of the boot path. *)
let test_boot_pinned () =
  let a = Lazy.force app in
  let churned, _ =
    Workload.Churn.generate { Workload.Churn.seed = 3; rate = 0.3 } Workload.App_spec.tiny
  in
  let packages = [ make_package (); make_package ~on:churned () ] in
  let store ~corrupt =
    let store = JS.Store.create () in
    List.iter
      (fun o ->
        JS.Store.publish store ~region:0 ~bucket:3 o.JS.Seeder.bytes
          o.JS.Seeder.package.JS.Package.meta)
      packages;
    if corrupt then
      Alcotest.(check bool) "corrupted" true
        (JS.Store.corrupt_one store (R.create 5) ~region:0 ~bucket:3);
    store
  in
  let buf = Buffer.create 4096 in
  List.iter
    (fun corrupt ->
      let ds = DS.create ~repo:a.Workload.Codegen.repo (store ~corrupt) in
      List.iter
        (fun salvage_stale ->
          let options = { JS.Options.default with JS.Options.salvage_stale } in
          for seed = 1 to 4 do
            let tel = Js_telemetry.create () and rng = R.create seed in
            let outcome =
              match
                JS.Consumer.boot_dist ~telemetry:tel a.Workload.Codegen.repo options ds rng
                  ~region:0 ~bucket:3 ~fallback_traffic:(traffic ~seed:9 ~n:20 ()) ()
              with
              | JS.Consumer.Jump_started _ -> "jump_started"
              | JS.Consumer.Fell_back (_, reason) -> "fell_back: " ^ reason
            in
            Printf.bprintf buf "%b %b %d %s\n%s\n%Ld\n" corrupt salvage_stale seed outcome
              (Js_telemetry.to_json tel) (R.bits64 rng)
          done)
        [ true; false ])
    [ false; true ];
  Alcotest.(check string) "boot pin" "ff1168d0fa163926e8ef53332fc4d73d"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* --- macro: Dist_net --- *)

let macro_app = lazy (Workload.Macro_app.generate Workload.Macro_app.default_params)

let mk_server_pkg () =
  Cluster.Server.make_package Cluster.Server.default_config (Lazy.force macro_app) ()

let test_net_neutral_draw_identity () =
  let net = DN.create DN.default_config in
  Alcotest.(check bool) "default inactive" false (DN.active DN.default_config);
  let rng = R.create 6 in
  let p0 = mk_server_pkg () and p1 = mk_server_pkg () and p2 = mk_server_pkg () in
  List.iter (fun p -> DN.publish net ~now:0. ~bucket:0 p) [ p0; p1; p2 ];
  (* publish prepends, so the replica order is newest-first *)
  let reference = [| p2; p1; p0 |] in
  let witness = R.copy rng in
  for _ = 1 to 20 do
    match DN.fetch net rng ~now:0. ~region:0 ~bucket:0 with
    | DN.Delivered (pkg, delay) ->
      Alcotest.(check (float 0.)) "no delay" 0. delay;
      Alcotest.(check bool) "draw-identical pick" true (pkg == R.pick witness reference)
    | _ -> Alcotest.fail "expected Delivered"
  done;
  Alcotest.(check int) "inactive network counts nothing" 0 (DN.counters net).DN.attempts

let test_net_create_validates () =
  (* the fault record comes from outside input: NaN, out-of-range and
     non-finite values are config errors, not a silently fault-free net *)
  let n = DN.default_network in
  List.iter
    (fun (network, msg) ->
      Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
          ignore (DN.create { DN.default_config with DN.network })))
    [ ({ n with DN.fetch_fail_rate = Float.nan }, "Dist_net: fetch_fail_rate must be in [0, 1]");
      ({ n with DN.stale_rate = 1.5 }, "Dist_net: stale_rate must be in [0, 1]");
      ({ n with DN.latency_mean = -1. }, "Dist_net: latency_mean must be finite and >= 0");
      ( { n with DN.fetch_timeout = Float.infinity },
        "Dist_net: fetch_timeout must be finite and >= 0" )
    ];
  Alcotest.check_raises "no attempts"
    (Invalid_argument "Dist_net: backoff.max_attempts must be >= 1") (fun () ->
      ignore
        (DN.create
           { DN.default_config with
             DN.backoff = { Js_util.Backoff.default with Js_util.Backoff.max_attempts = 0 }
           }))

let test_net_counters_invariant () =
  let cfg =
    { DN.default_config with
      DN.regions = 2;
      network =
        { DN.fetch_fail_rate = 0.4; fetch_timeout = 1.0; latency_mean = 0.5; stale_rate = 0.2 }
    }
  in
  let net = DN.create cfg in
  let rng = R.create 8 in
  DN.publish net ~now:0. ~bucket:0 (mk_server_pkg ());
  for _ = 1 to 200 do
    ignore (DN.fetch net rng ~now:0. ~region:0 ~bucket:0)
  done;
  let c = DN.counters net in
  Alcotest.(check bool) "faults occurred" true (c.DN.failures > 0 && c.DN.timeouts > 0);
  Alcotest.(check int) "attempts = deliveries + failures + timeouts + stale + empty"
    c.DN.attempts
    (c.DN.deliveries + c.DN.failures + c.DN.timeouts + c.DN.stale_rejects + c.DN.empty_probes)

let test_net_not_found () =
  let cfg =
    { DN.default_config with DN.network = { DN.default_network with DN.stale_rate = 0.5 } }
  in
  let net = DN.create cfg in
  (match DN.fetch net (R.create 1) ~now:0. ~region:0 ~bucket:9 with
  | DN.Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found");
  Alcotest.(check int) "empty probe counted" 1 (DN.counters net).DN.empty_probes

let test_net_pinned_backoff_schedule () =
  (* fail rate 1.0 draws nothing (p >= 1), zero jitter draws nothing: the
     whole ladder is deterministic.  4 attempts with base 0.5 doubling wait
     0.5 + 1 + 2 between attempts = 3.5 s total, telemetry pins the counts. *)
  let backoff =
    { Js_util.Backoff.default with
      Js_util.Backoff.max_attempts = 4;
      base_delay = 0.5;
      multiplier = 2.0;
      jitter = 0.
    }
  in
  let net =
    DN.create
      { DN.default_config with
        DN.network = { DN.default_network with DN.fetch_fail_rate = 1.0 };
        backoff
      }
  in
  DN.publish net ~now:0. ~bucket:0 (mk_server_pkg ());
  let tel = Js_telemetry.create () in
  let rng = R.create 1 in
  let witness = R.copy rng in
  (match DN.fetch ~telemetry:tel net rng ~now:0. ~region:0 ~bucket:0 with
  | DN.Unavailable delay -> Alcotest.(check (float 1e-9)) "backoff sum 0.5+1+2" 3.5 delay
  | _ -> Alcotest.fail "expected Unavailable");
  Alcotest.(check int64) "no randomness consumed" (R.bits64 witness) (R.bits64 rng);
  Alcotest.(check int) "attempts" 4 (Js_telemetry.counter tel "dist.fetch_attempts");
  Alcotest.(check int) "failures" 4 (Js_telemetry.counter tel "dist.fetch_failures")

let test_net_cross_region_fallback () =
  (* the home region's store is down when the package is published, region
     1 holds it: the ladder exhausts its home attempts, falls through to the
     foreign region and says so in telemetry *)
  let net = DN.create { DN.default_config with DN.regions = 2 } in
  DN.set_region_down net ~region:0 ~from_:0.;
  let pkg = mk_server_pkg () in
  DN.publish net ~now:0. ~bucket:3 pkg;
  let tel = Js_telemetry.create () in
  (match DN.fetch ~telemetry:tel net (R.create 1) ~now:0. ~region:0 ~bucket:3 with
  | DN.Delivered (got, _) -> Alcotest.(check bool) "served from region 1" true (got == pkg)
  | _ -> Alcotest.fail "expected Delivered");
  Alcotest.(check int) "one cross-region fetch" 1 (Js_telemetry.counter tel "dist.cross_region");
  Alcotest.(check int) "home attempts failed" Js_util.Backoff.default.Js_util.Backoff.max_attempts
    (Js_telemetry.counter tel "dist.fetch_failures")

(* --- the fleet ladder against the one it replaced --- *)

(* Random inputs for both sides: the fault record, a backoff with or without
   jitter, 1-3 regions, disaster windows, what is published into which
   bucket and when, and a fetch sequence over random home regions.  Every
   fetch comes after every publish, as in the simulator: the old fleet
   ladder picked among the replicas visible at the fetch, which with no
   publish latency (the oracle's [publish_latency_mean = 0]) is every
   replica published before it. *)
type case = {
  seed : int;
  net : DN.network;
  backoff : Js_util.Backoff.config;
  n_regions : int;
  down : (int * float) option;
  partition : (int * float * float) option;
  publishes : (int * int) list;  (* bucket, time *)
  fetches : (int * int * float) list;  (* home, bucket, now *)
}

let gen_case =
  let open QCheck.Gen in
  let rate = frequency [ (3, return 0.); (1, return 1.); (4, float_bound_inclusive 1.) ] in
  let secs hi = frequency [ (1, return 0.); (2, float_bound_inclusive hi) ] in
  let* seed = int_bound 1_000_000 in
  let faulty =
    let* fetch_fail_rate = rate and* stale_rate = rate in
    let* latency_mean = secs 2. and* fetch_timeout = secs 2. in
    return { DN.fetch_fail_rate; fetch_timeout; latency_mean; stale_rate }
  in
  (* a perfect network often enough that the neutral path gets exercised *)
  let* net = frequency [ (1, return DN.default_network); (3, faulty) ] in
  let* max_attempts = int_range 1 5 and* base_delay = secs 1. in
  let* multiplier = float_range 1. 3. and* max_delay = float_range 0. 8. in
  let* jitter = secs 0.5 in
  let* n_regions = int_range 1 3 in
  let region = int_bound (n_regions - 1) and time = float_bound_inclusive 160. in
  let* down = opt ~ratio:0.3 (pair region time) in
  let* partition =
    opt ~ratio:0.3 (triple region time (float_bound_inclusive 50.))
    >|= Option.map (fun (r, from_, len) -> (r, from_, from_ +. len))
  in
  let* publishes = list_size (int_bound 5) (pair (int_bound 1) (int_bound 60)) in
  let* fetches =
    list_size (int_range 1 12) (triple region (int_bound 1) (float_range 60. 160.))
  in
  return
    {
      seed;
      net;
      backoff = { Js_util.Backoff.max_attempts; base_delay; multiplier; max_delay; jitter };
      n_regions;
      down;
      partition;
      publishes;
      fetches;
    }

let print_case c =
  Printf.sprintf
    "seed %d fail %g timeout %g latency %g stale %g attempts %d base %g mult %g max %g jitter %g \
     regions %d down %s partition %s publishes %d fetches %d"
    c.seed c.net.DN.fetch_fail_rate c.net.DN.fetch_timeout c.net.DN.latency_mean
    c.net.DN.stale_rate c.backoff.Js_util.Backoff.max_attempts c.backoff.Js_util.Backoff.base_delay
    c.backoff.Js_util.Backoff.multiplier c.backoff.Js_util.Backoff.max_delay
    c.backoff.Js_util.Backoff.jitter c.n_regions
    (match c.down with Some (r, t) -> Printf.sprintf "%d@%g" r t | None -> "-")
    (match c.partition with Some (r, a, b) -> Printf.sprintf "%d@[%g,%g)" r a b | None -> "-")
    (List.length c.publishes) (List.length c.fetches)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let same_position a b = Int64.equal (R.bits64 (R.copy a)) (R.bits64 (R.copy b))

let same_net_outcome a b =
  match (a, b) with
  | DN.Delivered (p, d), DN.Delivered (q, e) -> p == q && same_bits d e
  | DN.Unavailable d, DN.Unavailable e -> same_bits d e
  | DN.Not_found, DN.Not_found -> true
  | _ -> false

let server_pkgs = lazy (Array.init 3 (fun _ -> mk_server_pkg ()))

let net_ladders_agree c =
  let net = DN.create { DN.regions = c.n_regions; network = c.net; backoff = c.backoff } in
  let old =
    Dist_ref.create_net
      { Dist_ref.regions = c.n_regions;
        fetch_fail_rate = c.net.DN.fetch_fail_rate;
        fetch_timeout = c.net.DN.fetch_timeout;
        fetch_latency_mean = c.net.DN.latency_mean;
        stale_rate = c.net.DN.stale_rate;
        cross_region = c.n_regions > 1;
        backoff = c.backoff;
        publish_latency_mean = 0.
      }
  in
  Option.iter
    (fun (region, from_) ->
      DN.set_region_down net ~region ~from_;
      Dist_ref.set_region_down old ~region ~from_)
    c.down;
  Option.iter
    (fun (region, from_, until) ->
      DN.set_region_partition net ~region ~from_ ~until;
      Dist_ref.set_region_partition old ~region ~from_ ~until)
    c.partition;
  let rng = R.create c.seed and old_rng = R.create c.seed in
  let pkgs = Lazy.force server_pkgs in
  List.iteri
    (fun i (bucket, at) ->
      let pkg = pkgs.(i mod Array.length pkgs) and now = float_of_int at in
      DN.publish net ~now ~bucket pkg;
      Dist_ref.publish old old_rng ~now ~bucket pkg)
    c.publishes;
  List.for_all
    (fun (home, bucket, now) ->
      let tel = Js_telemetry.create () and old_tel = Js_telemetry.create () in
      let got = DN.fetch ~telemetry:tel net rng ~now ~region:home ~bucket in
      let want = Dist_ref.net_fetch ~telemetry:old_tel old old_rng ~now ~region:home ~bucket in
      same_net_outcome got want
      && same_position rng old_rng
      && DN.counters net = Dist_ref.net_counters old
      && Js_telemetry.to_json tel = Js_telemetry.to_json old_tel)
    c.fetches

let prop_fleet_ladder =
  QCheck.Test.make ~name:"fleet ladder = the ladder it replaced" ~count:2000
    (QCheck.make ~print:print_case gen_case)
    net_ladders_agree

let () =
  Alcotest.run "dist"
    [ ( "dist_store",
        [ Alcotest.test_case "neutral passthrough" `Quick test_neutral_passthrough;
          Alcotest.test_case "no-package verdict" `Quick test_no_package_verdict;
          Alcotest.test_case "fingerprint gate" `Quick test_fingerprint_gate
        ] );
      ( "boot",
        [ Alcotest.test_case "jump-starts through the network" `Quick test_boot_dist_jump_starts;
          Alcotest.test_case "stale rejects burn attempts" `Quick
            test_boot_dist_stale_burns_attempts;
          Alcotest.test_case "pinned boots" `Quick test_boot_pinned
        ] );
      ( "dist_net",
        [ Alcotest.test_case "neutral draw identity" `Quick test_net_neutral_draw_identity;
          Alcotest.test_case "create validates" `Quick test_net_create_validates;
          Alcotest.test_case "counters invariant" `Quick test_net_counters_invariant;
          Alcotest.test_case "not found" `Quick test_net_not_found;
          Alcotest.test_case "pinned backoff schedule" `Quick test_net_pinned_backoff_schedule;
          Alcotest.test_case "cross-region fallback" `Quick test_net_cross_region_fallback
        ] );
      ("ladder", [ QCheck_alcotest.to_alcotest prop_fleet_ladder ])
    ]
