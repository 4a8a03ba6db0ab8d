(* Property-based tests (qcheck) over the core data structures and
   cross-cutting invariants. *)

(* --- binio --- *)

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"binio varint roundtrip" ~count:500
    QCheck.(small_nat)
    (fun n ->
      let w = Js_util.Binio.Writer.create () in
      Js_util.Binio.Writer.varint w n;
      let r = Js_util.Binio.Reader.of_string (Js_util.Binio.Writer.contents w) in
      Js_util.Binio.Reader.varint r = n)

let prop_svarint_roundtrip =
  QCheck.Test.make ~name:"binio svarint roundtrip" ~count:500
    QCheck.(int_range (-1_000_000_000) 1_000_000_000)
    (fun n ->
      let w = Js_util.Binio.Writer.create () in
      Js_util.Binio.Writer.svarint w n;
      let r = Js_util.Binio.Reader.of_string (Js_util.Binio.Writer.contents w) in
      Js_util.Binio.Reader.svarint r = n)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"binio string roundtrip" ~count:200 QCheck.string (fun s ->
      let w = Js_util.Binio.Writer.create () in
      Js_util.Binio.Writer.string w s;
      let r = Js_util.Binio.Reader.of_string (Js_util.Binio.Writer.contents w) in
      Js_util.Binio.Reader.string r = s)

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"binio frame roundtrip" ~count:200 QCheck.string (fun s ->
      Js_util.Binio.unframe ~magic:"PROP" ~expected_version:2
        (Js_util.Binio.frame ~magic:"PROP" ~version:2 s)
      = s)

(* --- rng --- *)

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"rng int bounds" ~count:500
    QCheck.(pair small_nat (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = Js_util.Rng.create seed in
      let v = Js_util.Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_deterministic =
  QCheck.Test.make ~name:"rng determinism" ~count:100 QCheck.small_nat (fun seed ->
      let a = Js_util.Rng.create seed and b = Js_util.Rng.create seed in
      List.init 20 (fun _ -> Js_util.Rng.bits64 a) = List.init 20 (fun _ -> Js_util.Rng.bits64 b))

let prop_rng_split_draw_compatible =
  (* the split-stream contract the simulators lean on: [split] costs the
     parent exactly one [bits64] draw — no more, no less — so a layout that
     splits child streams up front consumes the parent stream at exactly the
     positions a sequential draw layout would, and inserting or removing a
     split shifts later draws by exactly one *)
  QCheck.Test.make ~name:"rng split costs exactly one parent draw" ~count:200
    QCheck.(pair small_nat (int_range 0 10))
    (fun (seed, skip) ->
      let a = Js_util.Rng.create seed and b = Js_util.Rng.create seed in
      for _ = 1 to skip do
        ignore (Js_util.Rng.bits64 a);
        ignore (Js_util.Rng.bits64 b)
      done;
      let _child = Js_util.Rng.split a in
      ignore (Js_util.Rng.bits64 b);
      (* after the split, parent streams coincide draw-for-draw *)
      List.init 16 (fun _ -> Js_util.Rng.bits64 a)
      = List.init 16 (fun _ -> Js_util.Rng.bits64 b))

let prop_rng_split_independent_streams =
  (* children derived at different split positions are pairwise distinct
     streams, and all are distinct from the parent's continuation — the
     independence the per-region/per-server stream assignment relies on *)
  QCheck.Test.make ~name:"rng split streams pairwise distinct" ~count:100
    QCheck.small_nat
    (fun seed ->
      let parent = Js_util.Rng.create seed in
      let children = List.init 4 (fun _ -> Js_util.Rng.split parent) in
      let prefix rng = List.init 8 (fun _ -> Js_util.Rng.bits64 rng) in
      let streams = prefix parent :: List.map prefix children in
      (* all 5 prefixes mutually distinct *)
      let rec all_distinct = function
        | [] -> true
        | s :: rest -> (not (List.mem s rest)) && all_distinct rest
      in
      all_distinct streams)

let prop_rng_split_reproducible =
  (* splitting is itself deterministic: the same seed and split position
     yields an identical child stream (copy taken before the split replays
     both parent and child) *)
  QCheck.Test.make ~name:"rng split reproducible from copy" ~count:100
    QCheck.small_nat
    (fun seed ->
      let a = Js_util.Rng.create seed in
      let b = Js_util.Rng.copy a in
      let ca = Js_util.Rng.split a and cb = Js_util.Rng.split b in
      List.init 8 (fun _ -> Js_util.Rng.bits64 ca)
      = List.init 8 (fun _ -> Js_util.Rng.bits64 cb)
      && List.init 8 (fun _ -> Js_util.Rng.bits64 a)
         = List.init 8 (fun _ -> Js_util.Rng.bits64 b))

(* --- pqueue sorts --- *)

let prop_pqueue_sorts =
  (* priorities from a small set force ties; the payload is the insertion
     index, so draining must equal a stable sort by priority — FIFO on ties *)
  QCheck.Test.make ~name:"pqueue drains in sorted order" ~count:200
    QCheck.(list (map float_of_int (int_range 0 7)))
    (fun prios ->
      let q = Js_util.Pqueue.create ~dummy:(-1) () in
      List.iteri (fun i p -> Js_util.Pqueue.push q ~priority:p i) prios;
      let drained = List.init (List.length prios) (fun _ -> Js_util.Pqueue.pop_exn q) in
      let expected =
        List.mapi (fun i p -> (p, i)) prios
        |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
        |> List.map snd
      in
      drained = expected && Js_util.Pqueue.is_empty q)

(* --- layout --- *)

let cfg_gen =
  QCheck.make
    ~print:(fun (n, arcs) -> Printf.sprintf "n=%d arcs=%d" n (List.length arcs))
    QCheck.Gen.(
      int_range 1 14 >>= fun n ->
      map
        (fun arcs -> (n, arcs))
        (list_size (int_range 0 30)
           (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (float_range 0. 100.))))

let build_cfg (n, arcs) =
  Layout.Cfg.create
    ~blocks:(Array.init n (fun i -> { Layout.Cfg.id = i; size = 8 + (i * 4); weight = 1. }))
    ~arcs:(Array.of_list (List.map (fun (src, dst, weight) -> { Layout.Cfg.src; dst; weight }) arcs))
    ~entry:0

let is_permutation n order =
  let seen = Array.make n false in
  Array.length order = n
  && Array.for_all
       (fun id ->
         id >= 0 && id < n
         &&
         if seen.(id) then false
         else begin
           seen.(id) <- true;
           true
         end)
       order

let prop_exttsp_permutation =
  QCheck.Test.make ~name:"exttsp layout is an entry-first permutation" ~count:200 cfg_gen
    (fun spec ->
      let cfg = build_cfg spec in
      let order = Layout.Exttsp.layout cfg in
      is_permutation (fst spec) order && order.(0) = 0)

let prop_exttsp_score_nonneg =
  QCheck.Test.make ~name:"exttsp score non-negative" ~count:200 cfg_gen (fun spec ->
      let cfg = build_cfg spec in
      Layout.Exttsp.score cfg (Layout.Exttsp.layout cfg) >= 0.)

let prop_pettis_hansen_permutation =
  QCheck.Test.make ~name:"pettis-hansen is an entry-first permutation" ~count:200 cfg_gen
    (fun spec ->
      let cfg = build_cfg spec in
      let order = Layout.Baselines.pettis_hansen cfg in
      is_permutation (fst spec) order && order.(0) = 0)

let prop_c3_permutation =
  QCheck.Test.make ~name:"c3 order is a permutation" ~count:200 cfg_gen (fun (n, arcs) ->
      let nodes = Array.init n (fun i -> { Layout.C3.id = i; size = 64; samples = float_of_int (n - i) }) in
      let call_arcs =
        Array.of_list
          (List.map (fun (caller, callee, weight) -> { Layout.C3.caller; callee; weight }) arcs)
      in
      is_permutation n (Layout.C3.order ~nodes ~arcs:call_arcs ()))

(* --- machine --- *)

let trace_gen =
  QCheck.make
    ~print:(fun l -> Printf.sprintf "%d accesses" (List.length l))
    (QCheck.Gen.list_size (QCheck.Gen.int_range 1 400) (QCheck.Gen.int_range 0 100_000))

let prop_cache_misses_bounded =
  QCheck.Test.make ~name:"cache misses <= accesses" ~count:100 trace_gen (fun trace ->
      let c = Machine.Cache.create { Machine.Cache.name = "p"; sets = 8; ways = 2; line_bytes = 64 } in
      List.iter (fun addr -> ignore (Machine.Cache.access c ~addr ~write:false)) trace;
      let s = Machine.Cache.stats c in
      s.Machine.Cache.misses <= s.Machine.Cache.accesses
      && s.Machine.Cache.accesses = List.length trace)

let prop_bigger_cache_fewer_misses =
  QCheck.Test.make ~name:"more ways never miss more (same sets)" ~count:100 trace_gen
    (fun trace ->
      let run ways =
        let c =
          Machine.Cache.create { Machine.Cache.name = "p"; sets = 8; ways; line_bytes = 64 }
        in
        List.iter (fun addr -> ignore (Machine.Cache.access c ~addr ~write:false)) trace;
        (Machine.Cache.stats c).Machine.Cache.misses
      in
      (* LRU is a stack algorithm: capacity can only help *)
      run 8 <= run 2)

(* The cache with its MRU fast path against the scan-only cache it
   replaced ({!Cache_ref}): over random geometries and address streams,
   with a flush between two passes, both give the same hit/miss sequence,
   the same stats and the same contents. *)
let prop_cache_matches_reference =
  QCheck.Test.make ~name:"MRU fast-path cache = the scan-only cache" ~count:300
    QCheck.(
      quad (int_range 0 4) (int_range 1 8) (int_range 2 6)
        (list_of_size Gen.(int_range 1 300) (int_range 0 4095)))
    (fun (log_sets, ways, log_line, addrs) ->
      let cfg = { Machine.Cache.name = "q"; sets = 1 lsl log_sets; ways; line_bytes = 1 lsl log_line } in
      let c = Machine.Cache.create cfg and r = Cache_ref.create cfg in
      let same_contents () =
        List.for_all (fun addr -> Machine.Cache.probe c ~addr = Cache_ref.probe r ~addr) addrs
      in
      let pass stream =
        List.for_all (fun addr -> Machine.Cache.access c ~addr ~write:false = Cache_ref.access r ~addr) stream
        && Machine.Cache.stats c = Cache_ref.stats r
        && same_contents ()
      in
      pass addrs
      && (Machine.Cache.flush c;
          Cache_ref.flush r;
          same_contents ())
      && pass (List.rev addrs))

let prop_branch_counts =
  QCheck.Test.make ~name:"branch mispredicts <= branches" ~count:100
    QCheck.(list (pair (int_range 0 1000) bool))
    (fun events ->
      let bp = Machine.Branch.create ~entries:64 in
      List.iter (fun (pc, taken) -> ignore (Machine.Branch.execute bp ~pc ~target:(pc + 64) ~taken)) events;
      let s = Machine.Branch.stats bp in
      s.Machine.Branch.mispredicts <= s.Machine.Branch.branches)

(* --- series --- *)

let prop_series_constant_integral =
  QCheck.Test.make ~name:"series integral of a constant" ~count:100
    QCheck.(pair (float_range 0.1 100.) (float_range 1. 50.))
    (fun (c, t) ->
      let s = Js_util.Stats.Series.create () in
      Js_util.Stats.Series.add s ~time:0. ~value:c;
      Js_util.Stats.Series.add s ~time:t ~value:c;
      abs_float (Js_util.Stats.Series.integral s ~until:t -. (c *. t)) < 1e-6)

(* --- cross-cutting invariants over the real VM --- *)

let tiny_app = lazy (Workload.Codegen.generate Workload.App_spec.tiny)

let run_requests ~probes ~seed ~n =
  let app = Lazy.force tiny_app in
  let repo = app.Workload.Codegen.repo in
  let layouts = Mh_runtime.Class_layout.build repo ~reorder:false ~hotness:(fun _ _ -> 0) in
  let engine = Interp.Engine.create ~probes repo (Mh_runtime.Heap.create repo layouts) in
  let rng = Js_util.Rng.create seed in
  let mix = Workload.Request.uniform_mix app in
  List.init n (fun _ ->
      Workload.Request.invoke engine app (Workload.Request.sample rng mix))

let prop_probes_preserve_semantics =
  QCheck.Test.make ~name:"profiling probes do not change results" ~count:12 QCheck.small_nat
    (fun seed ->
      let app = Lazy.force tiny_app in
      let counters = Jit_profile.Counters.create app.Workload.Codegen.repo in
      let plain = run_requests ~probes:Interp.Probes.none ~seed ~n:10 in
      let probed = run_requests ~probes:(Jit_profile.Collector.probes counters) ~seed ~n:10 in
      plain = probed)

let prop_reordered_layout_preserves_semantics =
  QCheck.Test.make ~name:"property reordering does not change results" ~count:8 QCheck.small_nat
    (fun seed ->
      let app = Lazy.force tiny_app in
      let repo = app.Workload.Codegen.repo in
      let run reorder hot_seed =
        let hotness _ nid = (nid * 7919) + hot_seed in
        let layouts = Mh_runtime.Class_layout.build repo ~reorder ~hotness in
        let engine = Interp.Engine.create repo (Mh_runtime.Heap.create repo layouts) in
        let rng = Js_util.Rng.create seed in
        let mix = Workload.Request.uniform_mix app in
        List.init 8 (fun _ -> Workload.Request.invoke engine app (Workload.Request.sample rng mix))
      in
      run false 0 = run true seed)

let prop_counters_roundtrip =
  QCheck.Test.make ~name:"counters serialize/deserialize" ~count:8 QCheck.small_nat (fun seed ->
      let app = Lazy.force tiny_app in
      let repo = app.Workload.Codegen.repo in
      let counters = Jit_profile.Counters.create repo in
      ignore (run_requests ~probes:(Jit_profile.Collector.probes counters) ~seed ~n:8);
      let w = Js_util.Binio.Writer.create () in
      Jit_profile.Counters.serialize counters w;
      let back =
        Jit_profile.Counters.deserialize repo
          (Js_util.Binio.Reader.of_string (Js_util.Binio.Writer.contents w))
      in
      Jit_profile.Counters.call_graph counters = Jit_profile.Counters.call_graph back
      && Jit_profile.Counters.total_entries counters = Jit_profile.Counters.total_entries back
      && Jit_profile.Counters.touched_units counters = Jit_profile.Counters.touched_units back
      && List.sort compare (Jit_profile.Counters.prop_table counters)
         = List.sort compare (Jit_profile.Counters.prop_table back))

(* Compiler soundness against the static verifier: EVERY program the
   minihack compiler emits — over randomly generated app shapes — must pass
   the FuncChecker-style verifier with zero error-severity diagnostics, and
   any warnings must come from the known-benign lint set. *)
let benign_warnings = [ "V105"; "V109"; "V110" ]

let prop_compiler_output_verifies =
  QCheck.Test.make ~name:"compiled bytecode passes the verifier" ~count:10
    QCheck.(int_range 1 500)
    (fun seed ->
      let spec = { Workload.App_spec.tiny with Workload.App_spec.seed = seed } in
      let app = Workload.Codegen.generate spec in
      let diags = Js_analysis.Verify.check_repo app.Workload.Codegen.repo in
      Js_analysis.Diag.ok diags
      && List.for_all (fun d -> List.mem d.Js_analysis.Diag.code benign_warnings) diags)

let prop_pp_roundtrip_random_specs =
  QCheck.Test.make ~name:"generated apps round-trip the pretty printer" ~count:6
    QCheck.(int_range 1 500)
    (fun seed ->
      let spec = { Workload.App_spec.tiny with Workload.App_spec.seed = seed } in
      let src = Workload.Codegen.source_of spec in
      let ast = Minihack.Parser.parse_program src in
      Minihack.Parser.parse_program (Minihack.Pp.to_source ast) = ast)

(* §VI-A.3: for ANY store whose packages are all corrupt, boot must terminate
   with a clean Fell_back — the consumer never crashes and never accepts a
   corrupted package.  Also covers the empty store (0 copies published). *)
let seeded_package =
  lazy
    (let app = Lazy.force tiny_app in
     let options = { Jumpstart.Options.default with Jumpstart.Options.validate_packages = false } in
     let mix = Workload.Request.mix app ~region:0 ~bucket:0 in
     let traffic seed engine =
       let rng = Js_util.Rng.create seed in
       for _ = 1 to 200 do
         ignore (Workload.Request.invoke engine app (Workload.Request.sample rng mix))
       done
     in
     match
       Jumpstart.Seeder.run app.Workload.Codegen.repo options ~profile_traffic:(traffic 1)
         ~optimized_traffic:(traffic 2) ~region:0 ~bucket:0 ~seeder_id:0 ()
     with
     | Ok outcome -> outcome
     | Error msg -> failwith ("seeder failed: " ^ msg))

let prop_all_corrupt_store_falls_back =
  QCheck.Test.make ~name:"boot falls back cleanly when every package is corrupt" ~count:10
    QCheck.(pair small_nat (int_range 0 4))
    (fun (seed, copies) ->
      let app = Lazy.force tiny_app in
      let outcome = Lazy.force seeded_package in
      let good = outcome.Jumpstart.Seeder.bytes in
      let meta = outcome.Jumpstart.Seeder.package.Jumpstart.Package.meta in
      let rng = Js_util.Rng.create (seed + 1) in
      let store = Jumpstart.Store.create () in
      for _ = 1 to copies do
        (* flip one byte at an arbitrary position: header, payload or CRC *)
        let b = Bytes.of_string good in
        let pos = Js_util.Rng.int rng (Bytes.length b) in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 + Js_util.Rng.int rng 255)));
        Jumpstart.Store.publish store ~region:0 ~bucket:0 (Bytes.to_string b) meta
      done;
      let mix = Workload.Request.mix app ~region:0 ~bucket:0 in
      let fallback_traffic engine =
        let trng = Js_util.Rng.create 6 in
        for _ = 1 to 20 do
          ignore (Workload.Request.invoke engine app (Workload.Request.sample trng mix))
        done
      in
      let tel = Js_telemetry.create () in
      match
        Jumpstart.Consumer.boot_dist ~telemetry:tel app.Workload.Codegen.repo
          Jumpstart.Options.default (Jumpstart.Dist_store.create store) rng ~region:0 ~bucket:0
          ~fallback_traffic ()
      with
      | Jumpstart.Consumer.Fell_back (vm, _) ->
        (* random single-byte damage to framed bytes is always a CRC/header
           hit: every attempt must die at decode, never reaching the verify
           stage, so the verify.* counters stay pinned at zero *)
        let expect_decode =
          if copies = 0 then 0 else Jumpstart.Options.default.Jumpstart.Options.max_boot_attempts
        in
        vm.Jumpstart.Consumer.package = None
        && Js_telemetry.counter tel "consumer.decode_failures" = expect_decode
        && Js_telemetry.counter tel "verify.package_rejects" = 0
        && Js_telemetry.counter tel "consumer.verify_failures" = 0
      | Jumpstart.Consumer.Jump_started _ -> false)

(* Decode totality past the frame check: the tiny app's package payload,
   cut short or with one byte substituted inside the match table or outside
   it, re-framed with a valid CRC so every section parser sees the damage.
   Neither decode (the salvage one against the same and a churned build)
   nor the P3xx pass over what decodes may raise.  Cutting the framed
   bytes instead only ever reaches the frame check. *)
let match_table_span =
  lazy
    (let module B = Js_util.Binio in
     let bytes = (Lazy.force seeded_package).Jumpstart.Seeder.bytes in
     let payload =
       B.unframe ~magic:Jumpstart.Package.magic ~expected_version:Jumpstart.Package.version bytes
     in
     let r = B.Reader.of_string payload in
     (* 7 meta varints, then the 6 repo-shape sizes *)
     for _ = 1 to 13 do
       ignore (B.Reader.varint r)
     done;
     let at () = String.length payload - B.Reader.remaining r in
     let lo = at () in
     ignore (Jit_profile.Stale_match.read_shape r);
     (payload, lo, at ()))

let churned_tiny =
  lazy
    (fst (Workload.Churn.generate { Workload.Churn.seed = 3; rate = 0.3 } Workload.App_spec.tiny))

let prop_package_decode_total =
  QCheck.Test.make ~name:"package decode is total past the frame check" ~count:400
    QCheck.(triple (int_bound 2) (int_bound 1_000_000) (int_range 1 255))
    (fun (kind, k, x) ->
      let payload, lo, hi = Lazy.force match_table_span in
      let n = String.length payload in
      let subst pos =
        String.mapi (fun i c -> if i = pos then Char.chr (Char.code c lxor x) else c) payload
      in
      let mutated =
        match kind with
        | 0 -> String.sub payload 0 (k mod n)
        | 1 -> subst (lo + (k mod (hi - lo)))
        | _ ->
          let p = k mod (n - (hi - lo)) in
          subst (if p < lo then p else p + hi - lo)
      in
      let data =
        Js_util.Binio.frame ~magic:Jumpstart.Package.magic ~version:Jumpstart.Package.version
          mutated
      in
      let check repo = function
        | Ok pkg -> ignore (Jumpstart.Package_check.check repo pkg)
        | Error _ -> ()
      in
      let same = (Lazy.force tiny_app).Workload.Codegen.repo in
      let churned = (Lazy.force churned_tiny).Workload.Codegen.repo in
      check same (Jumpstart.Package.of_bytes same data);
      check same (Result.map fst (Jumpstart.Package.of_bytes_stale same data));
      check churned (Result.map fst (Jumpstart.Package.of_bytes_stale churned data));
      true)

(* The macro app of the discrete-event push properties below. *)
let dist_fleet_app =
  lazy
    (Workload.Macro_app.generate
       { Workload.Macro_app.default_params with Workload.Macro_app.n_funcs = 4_000 })

(* Small, fast discrete-event push configs for the js_sim properties: a
   handful of servers, a short horizon and a reduced warmup-curve reference
   run, with distribution-network faults dialed in per generated case. *)
let des_push_cfg ~fail10 ~stale10 ~cross ~policy ~jumpstart =
  let dist =
    { Cluster.Dist_net.default_config with
      Cluster.Dist_net.network =
        { Cluster.Dist_net.fetch_fail_rate = float_of_int fail10 /. 10.;
          fetch_timeout = 1.0;
          latency_mean = 0.5;
          stale_rate = float_of_int stale10 /. 10.
        };
      regions = (if cross then 2 else 1)
    }
  in
  let server =
    { Cluster.Server.default_config with
      Cluster.Server.profile_request_target = 400;
      init_seconds_sequential = 20.;
      init_seconds_parallel = 8.;
      traffic_ramp_seconds = 60.;
      cold_decay_seconds = 30.
    }
  in
  let fleet =
    { Cluster.Fleet.default_config with
      Cluster.Fleet.n_servers = 8;
      n_buckets = 2;
      seeders_per_bucket = 2;
      server;
      dist
    }
  in
  { Js_sim.Region.default_config with
    Js_sim.Region.fleet;
    warm_rps = 30.;
    concurrency = 4;
    arrival =
      { Js_sim.Arrival.default_config with Js_sim.Arrival.base_rps = 8. *. 30. *. 0.5 };
    policy;
    jumpstart;
    push_at = 40.;
    drain_cap = 2;
    duration = 200.;
    curve_horizon = 600.
  }

let prop_push_sim_deterministic =
  QCheck.Test.make
    ~name:"same seed reproduces byte-identical push_sim stats" ~count:4
    QCheck.(triple small_nat (int_range 0 3) bool)
    (fun (seed, policy_ix, jumpstart) ->
      let policy = List.nth Js_sim.Balancer.all_policies policy_ix in
      let cfg =
        des_push_cfg ~fail10:(seed mod 4) ~stale10:(seed mod 3)
          ~cross:(seed mod 2 = 0) ~policy ~jumpstart
      in
      let app = Lazy.force dist_fleet_app in
      Js_sim.Region.digest (Js_sim.Region.run cfg app ~seed)
      = Js_sim.Region.digest (Js_sim.Region.run cfg app ~seed))

let prop_push_sim_dist_ladder =
  QCheck.Test.make
    ~name:"DES pushes keep the dist-net counter ladder exact" ~count:6
    QCheck.(triple small_nat (int_range 1 5) (int_range 0 3))
    (fun (seed, fail10, stale10) ->
      let cfg =
        des_push_cfg ~fail10 ~stale10 ~cross:(seed mod 2 = 0)
          ~policy:Js_sim.Balancer.Warmup_weighted ~jumpstart:true
      in
      let stats = Js_sim.Region.run cfg (Lazy.force dist_fleet_app) ~seed:(seed + 1) in
      let restarted = stats.Js_sim.Region.jump_started + stats.Js_sim.Region.fallbacks in
      let n_servers = cfg.Js_sim.Region.fleet.Cluster.Fleet.n_servers in
      (* every server restarts exactly once — unless the guardrail aborted
         or a slow-fetch seed leaves the push still rolling at the horizon *)
      restarted <= n_servers
      && (stats.Js_sim.Region.aborted
         || stats.Js_sim.Region.push_done < 0.
         || restarted = n_servers)
      &&
      match stats.Js_sim.Region.dist with
      | None -> false (* nonzero fault rates always activate the network *)
      | Some c ->
        c.Cluster.Dist_net.attempts
        = c.Cluster.Dist_net.deliveries + c.Cluster.Dist_net.failures
          + c.Cluster.Dist_net.timeouts + c.Cluster.Dist_net.stale_rejects
          + c.Cluster.Dist_net.empty_probes)

let region_prop_gcfg ~seed ~n_regions =
  { Js_sim.Region.default_global_config with
    Js_sim.Region.base =
      des_push_cfg ~fail10:(seed mod 3) ~stale10:0 ~cross:true
        ~policy:Js_sim.Balancer.Warmup_weighted ~jumpstart:true;
    n_regions;
    region_phase = 120.;
    push_stagger = 25.;
    spillover = true;
    spill_latency = 15.;
    epoch = 15.;
    disasters =
      (if seed mod 2 = 0 then
         [ Js_sim.Region.Region_loss { region = n_regions - 1; at = 90. } ]
       else [])
  }

let prop_epoch_barrier_equals_merged =
  (* the tentpole invariant of the multi-region engine: a run advanced
     per-region to epoch barriers, on as many domains as the process has
     CPUs for, is byte-identical to the same run on one merged event queue;
     arrival batching is digest-neutral on top *)
  QCheck.Test.make
    ~name:"epoch == merged == parallel run (global digest), batching neutral" ~count:3
    QCheck.(pair small_nat (int_range 1 3))
    (fun (seed, n_regions) ->
      let gcfg = region_prop_gcfg ~seed ~n_regions in
      let app = Lazy.force dist_fleet_app in
      let digest mode g =
        Js_sim.Region.global_digest (Js_sim.Region.run_global ~mode g app ~seed)
      in
      let e = digest `Epoch gcfg in
      e = digest `Merged gcfg && e = digest `Epoch { gcfg with Js_sim.Region.batch = false })

let prop_parallel_telemetry_merge_equals_shared =
  (* per-region telemetry shards folded after a barrier run must reproduce
     what the merged run's one shared registry counted — counter-for-counter
     and bucket-for-bucket, on as many domains as the process has CPUs for
     (gauges/events are ordering-sensitive by contract and compared via
     counters' superset, the digest property above) *)
  QCheck.Test.make ~name:"parallel shard-merged telemetry == shared registry" ~count:2
    QCheck.(pair small_nat (int_range 2 3))
    (fun (seed, n_regions) ->
      let gcfg = region_prop_gcfg ~seed ~n_regions in
      let app = Lazy.force dist_fleet_app in
      let telemetry mode =
        let t = Js_telemetry.create () in
        ignore (Js_sim.Region.run_global ~telemetry:t ~mode gcfg app ~seed);
        (Js_telemetry.counters t, Js_telemetry.histograms t)
      in
      let shared = telemetry `Merged in
      shared = telemetry `Epoch)

let prop_quantile_region_merge =
  (* per-region sketches merged == one sketch fed the concatenated stream *)
  QCheck.Test.make ~name:"per-region quantile merge == concatenated stream" ~count:50
    QCheck.(pair (list_of_size Gen.(1 -- 4) (small_list (float_bound_exclusive 1000.)))
              (float_bound_exclusive 1000.))
    (fun (regions, extra) ->
      let module Q = Js_util.Stats.Quantile in
      let merged = Q.create () in
      let concat = Q.create () in
      List.iter
        (fun samples ->
          let per_region = Q.create () in
          List.iter
            (fun x ->
              Q.add per_region (x +. extra);
              Q.add concat (x +. extra))
            samples;
          Q.merge merged per_region)
        regions;
      Q.count merged = Q.count concat
      && (Q.count merged = 0
         || Q.p50 merged = Q.p50 concat
            && Q.p95 merged = Q.p95 concat
            && Q.p99 merged = Q.p99 concat))

(* --- simulator primitives against their reference copies --- *)

(* The unboxed generator, the dense sketch and the array-reading pick are
   checked against the boxed, Hashtbl and closure versions they replaced
   ({!Sim_ref}).  Floats compare by their exact hex rendering, and an
   exception compares by its message, so "same answer" means bit-identical
   values and identical failures. *)
let exact f x = try f x with e -> "raised " ^ Printexc.to_string e

type rng_op =
  | Bits
  | Int of int
  | Float of float
  | Expo of float
  | Gauss of float * float
  | Weighted of float array
  | Split
  | Copy

let rng_op_to_string = function
  | Bits -> "bits64"
  | Int b -> Printf.sprintf "int %d" b
  | Float b -> Printf.sprintf "float %h" b
  | Expo m -> Printf.sprintf "exponential %h" m
  | Gauss (mu, sigma) -> Printf.sprintf "gaussian %h %h" mu sigma
  | Weighted w ->
    let ws = Array.to_list (Array.map (Printf.sprintf "%h") w) in
    "sample_weighted [" ^ String.concat "; " ws ^ "]"
  | Split -> "split"
  | Copy -> "copy"

let rng_ops_arb =
  let open QCheck.Gen in
  let weight =
    frequency [ (1, return 0.); (1, float_bound_inclusive 1e-9); (4, float_bound_inclusive 100.) ]
  in
  let op =
    frequency
      [ (4, return Bits);
        (3, map (fun b -> Int b) (frequency [ (1, int_range (-2) 2); (4, int_range 1 max_int) ]));
        (3, map (fun b -> Float b) (float_range (-1e6) 1e6));
        (2, map (fun m -> Expo m) (float_range 0. 1e3));
        (2, map2 (fun mu sigma -> Gauss (mu, sigma)) (float_range (-10.) 10.) (float_range 0. 5.));
        (2, map (fun w -> Weighted (Array.of_list w)) (list_size (0 -- 8) weight));
        (1, return Split);
        (1, return Copy)
      ]
  in
  QCheck.make
    ~print:(fun (seed, ops) ->
      Printf.sprintf "seed %d: %s" seed
        (String.concat ", "
           (List.map (fun (g, op) -> Printf.sprintf "#%d %s" g (rng_op_to_string op)) ops)))
    (pair int (list_size (1 -- 80) (pair (0 -- 7) op)))

let prop_rng_matches_reference =
  QCheck.Test.make ~name:"unboxed rng = boxed reference rng, draw for draw" ~count:300
    rng_ops_arb (fun (seed, ops) ->
      let module R = Js_util.Rng in
      let module O = Sim_ref.Rng in
      (* live generator pairs; [split] and [copy] add a pair *)
      let gens = ref [| (R.create seed, O.create seed) |] in
      List.for_all
        (fun (g, op) ->
          let r, o = !gens.(g mod Array.length !gens) in
          let fresh (r', o') = gens := Array.append !gens [| (r', o') |] in
          let both f_new f_ref = exact f_new r = exact f_ref o in
          match op with
          | Bits ->
            both (fun r -> Int64.to_string (R.bits64 r)) (fun o -> Int64.to_string (O.bits64 o))
          | Int b -> both (fun r -> string_of_int (R.int r b)) (fun o -> string_of_int (O.int o b))
          | Float b ->
            both
              (fun r -> Printf.sprintf "%h" (R.float r b))
              (fun o -> Printf.sprintf "%h" (O.float o b))
          | Expo mean ->
            both
              (fun r -> Printf.sprintf "%h" (R.exponential r ~mean))
              (fun o -> Printf.sprintf "%h" (O.exponential o ~mean))
          | Gauss (mu, sigma) ->
            both
              (fun r -> Printf.sprintf "%h" (R.gaussian r ~mu ~sigma))
              (fun o -> Printf.sprintf "%h" (O.gaussian o ~mu ~sigma))
          | Weighted w ->
            both
              (fun r -> string_of_int (R.sample_weighted r w))
              (fun o -> string_of_int (O.sample_weighted o w))
          | Split ->
            fresh (R.split r, O.split o);
            true
          | Copy ->
            fresh (R.copy r, O.copy o);
            true)
        ops
      (* and every live stream ends at the same position *)
      && Array.for_all (fun (r, o) -> R.bits64 r = O.bits64 o) !gens)

type sketch_op = Add of int * float | Merge of int * int

let sketch_ops_arb =
  let open QCheck.Gen in
  let value =
    frequency
      [ (1, return 0.);
        (1, float_bound_exclusive 1e-9);
        (1, return 1e-9);
        (6, map (fun e -> 10. ** e) (float_range (-9.) 6.))
      ]
  in
  let op =
    frequency
      [ (12, map2 (fun k x -> Add (k, x)) (0 -- 3) value);
        (1, map2 (fun dst src -> Merge (dst, src)) (0 -- 3) (0 -- 3))
      ]
  in
  QCheck.make
    ~print:(fun ops ->
      String.concat ", "
        (List.map
           (function
             | Add (k, x) -> Printf.sprintf "add #%d %h" k x
             | Merge (d, s) -> Printf.sprintf "merge #%d <- #%d" d s)
           ops))
    (list_size (0 -- 300) op)

let prop_quantile_matches_reference =
  QCheck.Test.make ~name:"dense quantile sketch = Hashtbl reference sketch" ~count:300
    sketch_ops_arb (fun ops ->
      let module Q = Js_util.Stats.Quantile in
      let module O = Sim_ref.Quantile in
      let qs = Array.init 4 (fun _ -> Q.create ()) and os = Array.init 4 (fun _ -> O.create ()) in
      List.iter
        (function
          | Add (k, x) ->
            Q.add qs.(k) x;
            O.add os.(k) x
          | Merge (d, s) ->
            Q.merge qs.(d) qs.(s);
            O.merge os.(d) os.(s))
        ops;
      List.for_all
        (fun k ->
          Q.count qs.(k) = O.count os.(k)
          && List.for_all
               (fun q ->
                 exact (fun t -> Printf.sprintf "%h" (Q.quantile t q)) qs.(k)
                 = exact (fun t -> Printf.sprintf "%h" (O.quantile t q)) os.(k))
               [ 0.; 0.5; 0.95; 0.99; 1. ])
        [ 0; 1; 2; 3 ])

let pick_case_arb =
  let open QCheck.Gen in
  let weight =
    frequency
      [ (1, return 0.); (1, float_bound_exclusive 1e-9); (4, float_bound_inclusive 100.);
        (1, float_bound_inclusive 1e6) ]
  in
  let case =
    int_range 1 32 >>= fun m ->
    list_size (0 -- 40) (int_bound (m - 1)) >>= fun candidates ->
    int_bound (List.length candidates) >>= fun n ->
    map
      (fun (((weights, outstanding), policy), (picks, seed)) ->
        ( Array.of_list candidates, n, Array.of_list weights, Array.of_list outstanding, policy,
          picks, seed ))
      (pair
         (pair (pair (list_repeat m weight) (list_repeat m (int_bound 10))) (int_bound 3))
         (pair (int_range 1 12) int))
  in
  QCheck.make
    ~print:(fun (candidates, n, weights, outstanding, policy, picks, seed) ->
      let ints a = String.concat ";" (Array.to_list (Array.map string_of_int a)) in
      Printf.sprintf
        "policy %s, n %d, %d picks, seed %d, candidates [%s], outstanding [%s], weights [%s]"
        (Js_sim.Balancer.policy_to_string (List.nth Js_sim.Balancer.all_policies policy))
        n picks seed (ints candidates) (ints outstanding)
        (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") weights))))
    case

let prop_pick_matches_reference =
  QCheck.Test.make ~name:"array pick = closure reference pick, same rng position" ~count:500
    pick_case_arb (fun (candidates, n, weights, outstanding, policy, picks, seed) ->
      let policy = List.nth Js_sim.Balancer.all_policies policy in
      let b = Js_sim.Balancer.create policy and o = Sim_ref.Balancer.create policy in
      let rng = Js_util.Rng.create seed and ref_rng = Sim_ref.Rng.create seed in
      List.for_all
        (fun _ ->
          let got = Js_sim.Balancer.pick b rng ~n ~candidates ~outstanding ~weights in
          let want =
            Sim_ref.Balancer.pick o ref_rng ~n ~candidates
              ~outstanding:(fun six -> outstanding.(six))
              ~capacity:(fun six -> weights.(six))
              ()
          in
          got = Option.value want ~default:(-1))
        (List.init picks Fun.id)
      && Js_util.Rng.bits64 rng = Sim_ref.Rng.bits64 ref_rng)

let prop_interp_deterministic =
  QCheck.Test.make ~name:"interpreter fully deterministic" ~count:8 QCheck.small_nat (fun seed ->
      run_requests ~probes:Interp.Probes.none ~seed ~n:6
      = run_requests ~probes:Interp.Probes.none ~seed ~n:6)

(* The tentpole invariant of the inline-cache fast path: caching is pure
   memoization, so a cached run of ANY generated program must be
   observationally identical to the uncached reference loop — same request
   results, same echo output, same instruction count, and the same ordered
   stream of block/arc/call/entry/exit/prop probe events, each with the
   instruction count it sees. *)
type probe_event =
  | Block of int * int
  | Arc of int * int * int
  | Call_site of int * int * int
  | Entry of int
  | Exit of int
  | Prop of int * int * int * bool

let trace_requests app ~layouts ~inline_cache ~seed ~n =
  let repo = app.Workload.Codegen.repo in
  let traced = ref None in
  let events = ref [] in
  let record e =
    let steps = match !traced with Some engine -> Interp.Engine.steps engine | None -> -1 in
    events := (steps, e) :: !events
  in
  let probes =
    Interp.Probes.Events
      {
        on_block = (fun fid bb -> record (Block (fid, bb)));
        on_arc = (fun fid ~src ~dst -> record (Arc (fid, src, dst)));
        on_call = (fun ~caller ~site ~callee -> record (Call_site (caller, site, callee)));
        on_func_entry = (fun fid -> record (Entry fid));
        on_func_exit = (fun fid -> record (Exit fid));
        on_prop_access = (fun cid nid ~addr ~write -> record (Prop (cid, nid, addr, write)));
      }
  in
  let engine =
    let e = Interp.Engine.create ~probes ~inline_cache repo (Mh_runtime.Heap.create repo layouts) in
    traced := Some e;
    e
  in
  let rng = Js_util.Rng.create seed in
  let mix = Workload.Request.uniform_mix app in
  let results =
    List.init n (fun _ -> Workload.Request.invoke engine app (Workload.Request.sample rng mix))
  in
  ( results,
    Interp.Engine.output engine,
    Interp.Engine.steps engine,
    List.rev !events )

(* A generated tiny app under [app_seed], churned at [rate] (0 leaves the
   base build untouched). *)
let tiny_build ~app_seed ~rate =
  let spec = { Workload.App_spec.tiny with Workload.App_spec.seed = app_seed } in
  fst (Workload.Churn.generate { Workload.Churn.seed = app_seed; rate } spec)

(* Inputs span base and churned builds, and declaration-order and
   hotness-reordered class layouts. *)
let prop_inline_cache_transparent =
  QCheck.Test.make ~name:"inline caches are observationally invisible" ~count:6
    QCheck.(quad (int_range 1 500) (int_range 0 5) bool small_nat)
    (fun (app_seed, r10, reorder, seed) ->
      let app = tiny_build ~app_seed ~rate:(float_of_int r10 /. 10.) in
      let hotness _ nid = (nid * 7919) + seed in
      let layouts = Mh_runtime.Class_layout.build app.Workload.Codegen.repo ~reorder ~hotness in
      trace_requests app ~layouts ~inline_cache:true ~seed ~n:5
      = trace_requests app ~layouts ~inline_cache:false ~seed ~n:5)

(* Reach soundness on executed code: every block the tier-1 probes record
   is [reach], and every recorded arc a [feasible_edge], in its function's
   converged dataflow summary.  The P320/P321 package gates and the stale
   matcher rely on exactly these facts. *)
let prop_executions_dataflow_feasible =
  QCheck.Test.make ~name:"executed blocks and arcs are dataflow-feasible" ~count:10
    QCheck.(triple (int_range 1 500) (int_range 0 5) small_nat)
    (fun (app_seed, r10, seed) ->
      let app = tiny_build ~app_seed ~rate:(float_of_int r10 /. 10.) in
      let repo = app.Workload.Codegen.repo in
      let counters = Jit_profile.Counters.create repo in
      let layouts = Mh_runtime.Class_layout.build repo ~reorder:false ~hotness:(fun _ _ -> 0) in
      let engine =
        Interp.Engine.create
          ~probes:(Jit_profile.Collector.probes counters)
          repo (Mh_runtime.Heap.create repo layouts)
      in
      let rng = Js_util.Rng.create seed in
      let mix = Workload.Request.uniform_mix app in
      for _ = 1 to 8 do
        ignore (Workload.Request.invoke engine app (Workload.Request.sample rng mix))
      done;
      let module Dfa = Js_analysis.Dataflow in
      Jit_profile.Counters.profiled_funcs counters <> []
      && List.for_all
           (fun fid ->
             let s = Dfa.analyze repo (Hhbc.Repo.func repo fid) in
             s.Dfa.converged
             && (match Jit_profile.Counters.block_counts counters fid with
                | None -> true
                | Some counts -> Seq.for_all (fun (b, c) -> c = 0 || s.Dfa.reach.(b)) (Array.to_seqi counts))
             && List.for_all
                  (fun (src, dst, _) -> Dfa.feasible_edge s ~src ~dst)
                  (Jit_profile.Counters.arc_counts counters fid))
           (Jit_profile.Counters.profiled_funcs counters))

(* The product probe paths against the closure paths they replaced
   ({!Probe_ref}): on a random base or churned tiny app, on both loops,
   the tier-1 counters and the measured vasm profile serialize to the same
   bytes, and replay through the trace adapter emits the same machine
   events in the same order.  A third of the cases pass some requests a
   string argument, which raises a runtime error a few calls deep; another
   third run out of fuel mid-request, after which every request fails on
   entry.  Either way activations unwind through the error exit. *)
type machine_event = Fetch of int * int | Branch of int * int * bool | Load of int | Store of int

let recording_sink events =
  {
    Jit.Trace_adapter.fetch = (fun ~addr ~size -> events := Fetch (addr, size) :: !events);
    branch = (fun ~pc ~target ~taken -> events := Branch (pc, target, taken) :: !events);
    load = (fun ~addr -> events := Load addr :: !events);
    store = (fun ~addr -> events := Store addr :: !events);
  }

let prop_probe_paths_match_reference =
  QCheck.Test.make ~name:"dense probe paths = the closure paths they replaced" ~count:25
    QCheck.(quad (int_range 1 500) (int_range 0 5) small_nat (int_range 0 2))
    (fun (app_seed, r10, seed, fault) ->
      let app = tiny_build ~app_seed ~rate:(float_of_int r10 /. 10.) in
      let repo = app.Workload.Codegen.repo in
      let layouts = Mh_runtime.Class_layout.build repo ~reorder:false ~hotness:(fun _ _ -> 0) in
      let mix = Workload.Request.uniform_mix app in
      let fuel = if fault = 2 then 2_000 + (seed * 1_009) else 200_000_000 in
      let serve ~inline_cache probes =
        let engine =
          Interp.Engine.create ~probes ~fuel ~inline_cache repo (Mh_runtime.Heap.create repo layouts)
        in
        let rng = Js_util.Rng.create seed in
        for k = 1 to 30 do
          let req = Workload.Request.sample rng mix in
          let n = if fault = 1 && k mod 3 = 0 then Hhbc.Value.Str "x" else Hhbc.Value.Int req.n in
          Mh_runtime.Heap.reset_arena (Interp.Engine.heap engine);
          match
            Interp.Engine.call engine
              app.Workload.Codegen.endpoint_fids.(req.endpoint)
              [ Hhbc.Value.Int req.sel; n ]
          with
          | _ -> ()
          | exception Interp.Engine.Runtime_error _ -> ()
        done
      in
      let bytes serialize =
        let w = Js_util.Binio.Writer.create () in
        serialize w;
        Js_util.Binio.Writer.contents w
      in
      let profile = Jit_profile.Counters.create repo in
      serve ~inline_cache:true (Jit_profile.Collector.probes profile);
      let config = { Jit.Compiler.default_config with Jit.Compiler.min_entries = 1 } in
      let vfuncs =
        Jit.Compiler.lower_all repo profile { config with Jit.Compiler.mode = Vasm.Lower.Instrumented }
      in
      let lookup fid = List.assoc_opt fid vfuncs in
      let compiled = Jit.Compiler.compile repo profile config ~measured:None in
      let same_on ~inline_cache =
        let serve = serve ~inline_cache in
        let counters = Jit_profile.Counters.create repo in
        let ref_counters = Probe_ref.Counters.create repo in
        serve (Jit_profile.Collector.probes counters);
        serve (Probe_ref.Counters.probes ref_counters);
        let measured = Jit.Vasm_profile.create () in
        let ref_measured = Probe_ref.Vasm_profile.create () in
        serve (Jit.Context.probes repo ~lookup (Jit.Vasm_profile.handler measured));
        serve (Probe_ref.Context.probes repo ~lookup (Probe_ref.Vasm_profile.handler ref_measured));
        let lookup = Jit.Compiler.lookup compiled and cache = compiled.Jit.Compiler.cache in
        let events = ref [] and ref_events = ref [] in
        serve (Jit.Context.probes repo ~lookup (Jit.Trace_adapter.handler ~cache (recording_sink events)));
        serve
          (Probe_ref.Context.probes repo ~lookup
             (Probe_ref.Trace_adapter.handler ~cache (recording_sink ref_events)));
        !events <> []
        && bytes (Jit_profile.Counters.serialize counters)
           = bytes (Probe_ref.Counters.serialize ref_counters)
        && bytes (Jit.Vasm_profile.serialize measured)
           = bytes (Probe_ref.Vasm_profile.serialize ref_measured)
        && !events = !ref_events
      in
      same_on ~inline_cache:true && same_on ~inline_cache:false)

(* Solver termination: on random stack-balanced CFGs (loops included, with
   type-unstable locals to force lattice climbing) the analysis reaches its
   fixed point within the declared iteration bound. *)
let prop_dataflow_fixed_point =
  QCheck.Test.make ~name:"dataflow solver converges within bound" ~count:200 QCheck.small_nat
    (fun seed ->
      let module I = Hhbc.Instr in
      let rng = Js_util.Rng.create (seed + 1) in
      let n_locals = 2 in
      let n_segs = 2 + Js_util.Rng.int rng 6 in
      (* 4-instruction segments: a stack-neutral payload then a terminator
         jumping to some segment start; the last segment returns *)
      let seg s =
        if s = n_segs - 1 then [ I.Nop; I.Nop; I.LitNull; I.Ret ]
        else begin
          let payload =
            match Js_util.Rng.int rng 4 with
            | 0 -> [ I.LitInt (Js_util.Rng.int rng 5); I.StoreLoc (Js_util.Rng.int rng n_locals) ]
            | 1 -> [ I.LitFloat 1.5; I.StoreLoc (Js_util.Rng.int rng n_locals) ]
            | 2 -> [ I.LitInt 7; I.Pop ]
            | _ -> [ I.Nop; I.Nop ]
          in
          let target = 4 * Js_util.Rng.int rng n_segs in
          let term =
            match Js_util.Rng.int rng 3 with
            | 0 -> [ I.Nop; I.Jmp target ]
            | 1 -> [ I.LitBool (Js_util.Rng.int rng 2 = 0); I.JmpZ target ]
            | _ -> [ I.LoadLoc (Js_util.Rng.int rng n_locals); I.JmpNZ target ]
          in
          payload @ term
        end
      in
      let body = Array.of_list (List.concat (List.init n_segs seg)) in
      let b = Hhbc.Repo.Builder.create () in
      let fid =
        Hhbc.Repo.Builder.add_func b
          { Hhbc.Func.id = 0; name = "p"; unit_id = 0; class_id = None; n_params = 0; n_locals;
            body }
      in
      ignore
        (Hhbc.Repo.Builder.add_unit b
           { Hhbc.Unit_def.id = 0; path = "p.mh"; funcs = [| fid |]; classes = [||];
             main = Some fid; load_cost_bytes = 0 });
      let repo = Hhbc.Repo.Builder.finish b in
      let f = Hhbc.Repo.func repo fid in
      let s = Js_analysis.Dataflow.analyze repo f in
      let bound =
        Js_analysis.Dataflow.typestate_bound
          ~n_blocks:(Array.length s.Js_analysis.Dataflow.blocks)
          ~body_len:(Array.length f.Hhbc.Func.body) ~n_locals
      in
      s.Js_analysis.Dataflow.converged && s.Js_analysis.Dataflow.iterations <= bound)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [ ( "binio",
        q [ prop_varint_roundtrip; prop_svarint_roundtrip; prop_string_roundtrip; prop_frame_roundtrip ]
      );
      ( "rng",
        q
          [ prop_rng_int_in_bounds; prop_rng_deterministic; prop_rng_split_draw_compatible;
            prop_rng_split_independent_streams; prop_rng_split_reproducible
          ] );
      ("pqueue", q [ prop_pqueue_sorts ]);
      ( "layout",
        q
          [ prop_exttsp_permutation; prop_exttsp_score_nonneg; prop_pettis_hansen_permutation;
            prop_c3_permutation
          ] );
      ( "machine",
        q
          [ prop_cache_misses_bounded; prop_bigger_cache_fewer_misses; prop_cache_matches_reference;
            prop_branch_counts
          ] );
      ("series", q [ prop_series_constant_integral ]);
      ( "vm invariants",
        q
          [ prop_probes_preserve_semantics; prop_reordered_layout_preserves_semantics;
            prop_counters_roundtrip; prop_pp_roundtrip_random_specs; prop_interp_deterministic;
            prop_inline_cache_transparent; prop_executions_dataflow_feasible;
            prop_probe_paths_match_reference;
            prop_dataflow_fixed_point; prop_compiler_output_verifies
          ] );
      ( "reliability",
        q [ prop_all_corrupt_store_falls_back ]
        @ [ QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 22 |])
              prop_package_decode_total
          ] );
      ( "sim",
        q
          [ prop_push_sim_deterministic; prop_push_sim_dist_ladder; prop_rng_matches_reference;
            prop_quantile_matches_reference; prop_pick_matches_reference
          ] );
      ( "region",
        q
          [ prop_epoch_barrier_equals_merged; prop_parallel_telemetry_merge_equals_shared;
            prop_quantile_region_merge
          ] )
    ]
