(* Code-layout algorithm tests: Ext-TSP, hot/cold splitting, C3. *)

module Cfg = Layout.Cfg
module Exttsp = Layout.Exttsp
module Hotcold = Layout.Hotcold
module C3 = Layout.C3

let mk_cfg blocks arcs entry =
  Cfg.create
    ~blocks:(Array.of_list (List.mapi (fun i (size, weight) -> { Cfg.id = i; size; weight }) blocks))
    ~arcs:(Array.of_list (List.map (fun (src, dst, weight) -> { Cfg.src; dst; weight }) arcs))
    ~entry

let is_permutation n order =
  let seen = Array.make n false in
  Array.length order = n
  && Array.for_all
       (fun id ->
         if id < 0 || id >= n || seen.(id) then false
         else begin
           seen.(id) <- true;
           true
         end)
       order

(* --- CFG validation --- *)

(* Ext-TSP's pruning is sound only on non-negative sizes and finite,
   non-negative weights, so [Cfg.create] rejects everything else. *)
let cfg_rejects (what, msg, size, block_weight, arc_weight) =
  Alcotest.test_case what `Quick (fun () ->
      Alcotest.check_raises what (Invalid_argument ("Cfg.create: " ^ msg)) (fun () ->
          ignore (mk_cfg [ (10, 1.); (size, block_weight) ] [ (0, 1, arc_weight) ] 0)))

let cfg_rejected_inputs =
  let block = "block weight not finite and non-negative"
  and arc = "arc weight not finite and non-negative" in
  [ ("negative size", "negative block size", -1, 1., 1.);
    ("NaN block weight", block, 10, Float.nan, 1.);
    ("infinite block weight", block, 10, Float.infinity, 1.);
    ("negative block weight", block, 10, -1., 1.);
    ("NaN arc weight", arc, 10, 1., Float.nan);
    ("infinite arc weight", arc, 10, 1., Float.infinity);
    ("negative arc weight", arc, 10, 1., -1.)
  ]

(* --- Ext-TSP score --- *)

let test_score_fallthrough () =
  (* two blocks laid consecutively: arc scores its full weight *)
  let cfg = mk_cfg [ (10, 100.); (10, 100.) ] [ (0, 1, 100.) ] 0 in
  Alcotest.(check (float 1e-6)) "fallthrough" 100. (Exttsp.score cfg [| 0; 1 |]);
  (* reversed: backward jump of 20 bytes within window *)
  let back = Exttsp.score cfg [| 1; 0 |] in
  Alcotest.(check bool) "backward partial credit" true (back > 0. && back < 100.)

let test_score_forward_window () =
  (* forward jump beyond the 1024-byte window scores zero *)
  let cfg = mk_cfg [ (10, 1.); (2000, 0.); (10, 1.) ] [ (0, 2, 50.) ] 0 in
  Alcotest.(check (float 1e-6)) "outside window" 0. (Exttsp.score cfg [| 0; 1; 2 |]);
  (* laid adjacent, full credit *)
  Alcotest.(check (float 1e-6)) "adjacent" 50. (Exttsp.score cfg [| 0; 2; 1 |])

let test_score_rejects_bad_order () =
  let cfg = mk_cfg [ (10, 1.); (10, 1.) ] [] 0 in
  Alcotest.check_raises "not a permutation" (Invalid_argument "Exttsp.score: not a permutation")
    (fun () -> ignore (Exttsp.score cfg [| 0; 0 |]))

(* --- Ext-TSP layout --- *)

let test_layout_entry_first () =
  let cfg =
    mk_cfg
      [ (10, 5.); (10, 100.); (10, 100.) ]
      [ (0, 1, 5.); (1, 2, 100.); (2, 1, 95.) ]
      0
  in
  let order = Exttsp.layout cfg in
  Alcotest.(check bool) "permutation" true (is_permutation 3 order);
  Alcotest.(check int) "entry first" 0 order.(0)

let test_layout_prefers_hot_fallthrough () =
  (* diamond: entry 0 -> {1 (hot), 2 (cold)} -> 3; hot side must follow entry *)
  let cfg =
    mk_cfg
      [ (10, 100.); (10, 99.); (10, 1.); (10, 100.) ]
      [ (0, 1, 99.); (0, 2, 1.); (1, 3, 99.); (2, 3, 1.) ]
      0
  in
  let order = Exttsp.layout cfg in
  Alcotest.(check int) "hot successor second" 1 order.(1);
  Alcotest.(check int) "join third" 3 order.(2);
  let src_score = Exttsp.score cfg (Layout.Baselines.source_order cfg) in
  Alcotest.(check bool) "beats source order" true (Exttsp.score cfg order >= src_score)

let test_layout_loop_rotation () =
  (* entry -> header; loop header <-> body; exit. the body should sit right
     after the header for the fallthrough *)
  let cfg =
    mk_cfg
      [ (10, 1.); (10, 100.); (10, 99.); (10, 1.) ]
      [ (0, 1, 1.); (1, 2, 99.); (2, 1, 98.); (1, 3, 1.) ]
      0
  in
  let order = Exttsp.layout cfg in
  let pos = Array.make 4 0 in
  Array.iteri (fun i b -> pos.(b) <- i) order;
  Alcotest.(check int) "body after header" (pos.(1) + 1) pos.(2)

let test_layout_improves_on_random_cfgs () =
  (* on random CFGs the optimizer should never do much worse than source
     order, and usually better *)
  let rng = Js_util.Rng.create 123 in
  let better = ref 0 in
  for _ = 1 to 25 do
    let n = 4 + Js_util.Rng.int rng 12 in
    let blocks = List.init n (fun _ -> (8 + Js_util.Rng.int rng 60, Js_util.Rng.float rng 100.)) in
    let arcs =
      List.init (2 * n) (fun _ ->
          let s = Js_util.Rng.int rng n and d = Js_util.Rng.int rng n in
          (s, d, Js_util.Rng.float rng 50.))
    in
    let cfg = mk_cfg blocks arcs 0 in
    let order = Exttsp.layout cfg in
    Alcotest.(check bool) "permutation" true (is_permutation n order);
    Alcotest.(check int) "entry first" 0 order.(0);
    let s_opt = Exttsp.score cfg order in
    let s_src = Exttsp.score cfg (Layout.Baselines.source_order cfg) in
    if s_opt > s_src +. 1e-9 then incr better;
    Alcotest.(check bool) "no catastrophic regression" true (s_opt >= 0.5 *. s_src)
  done;
  Alcotest.(check bool) "usually improves" true (!better >= 15)

(* The optimizer caches each chain pair's best merge; it must return exactly
   the order of the reference that re-scores every pair on every merge.  The
   CFGs are tie-heavy (small-integer weights and sizes), have self-loops and
   duplicate arcs and any entry, and reach 200 blocks under a small split
   limit, so chains both short enough and too long to split occur. *)
let equivalence_cfg =
  let gen =
    QCheck.Gen.(
      frequency [ (4, int_range 2 24); (1, int_range 25 200) ] >>= fun n ->
      let block = int_range 0 (n - 1) in
      triple (int_range 0 (n - 1)) (int_range 1 12)
        (array_repeat n (pair (oneofl [ 0; 4; 8; 16; 24 ]) (int_range 0 3)))
      >>= fun (entry, max_chain_split, blocks) ->
      list_size (int_range 0 (2 * n)) (triple block block (int_range 0 4)) >>= fun arcs ->
      list_size (int_range 0 (1 + (n / 4))) (pair block (int_range 0 4)) >>= fun loops ->
      list_size (int_range 0 (1 + (n / 4))) (oneofl ((0, 0, 0) :: arcs)) >>= fun dups ->
      let arcs = arcs @ List.map (fun (b, w) -> (b, b, w)) loops @ dups in
      return (entry, max_chain_split, blocks, arcs))
  in
  QCheck.make gen ~print:(fun (entry, split, blocks, arcs) ->
      Printf.sprintf "n=%d entry=%d max_chain_split=%d arcs=%d" (Array.length blocks) entry split
        (List.length arcs))

let prop_layout_matches_reference =
  QCheck.Test.make ~name:"layout equals the uncached reference" ~count:150 equivalence_cfg
    (fun (entry, max_chain_split, blocks, arcs) ->
      let cfg =
        mk_cfg
          (List.map (fun (size, w) -> (size, float_of_int w)) (Array.to_list blocks))
          (List.map (fun (s, d, w) -> (s, d, float_of_int w)) arcs)
          entry
      in
      Exttsp.layout ~max_chain_split cfg = Exttsp_ref.layout ~max_chain_split cfg)

(* Near ties, where only the rounding margin keeps the pruned search equal
   to the reference.  Weights from {0.3, 0.4, 0.5} are not dyadic, so two
   candidates whose scores tie can get bounds an ulp apart; 1e6-scale
   integer weights test the margin's relative term.  Sizes run 0-199, and
   chain arcs k -> k+1 grow chains past the split limit, the default 128 or
   1-20.  Pruning with a zero margin diverged from the reference on a few
   of every thousand such CFGs. *)
let near_tie_cfg =
  let gen =
    QCheck.Gen.(
      frequency [ (100, int_range 2 40); (1, int_range 129 136) ] >>= fun n ->
      pair bool bool >>= fun (tenths, eight) ->
      let weight =
        if tenths then oneofl [ 0.3; 0.4; 0.5 ] else map float_of_int (int_range 0 1_000_000)
      in
      let size = if eight then return 8 else int_range 0 199 in
      let arc = triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) weight in
      quad
        (frequency [ (1, return 128); (1, int_range 1 20) ])
        (array_repeat n (pair size weight))
        (list_repeat (n - 1) weight)
        (pair bool (list_size (int_range 0 n) arc))
      >>= fun (split, blocks, chain, (chain_first, extra)) ->
      let chain = List.mapi (fun k w -> (k, k + 1, w)) chain in
      return (split, blocks, if chain_first then chain @ extra else extra @ chain))
  in
  QCheck.make gen ~print:(fun (split, blocks, arcs) ->
      Printf.sprintf "n=%d max_chain_split=%d arcs=[%s]" (Array.length blocks) split
        (String.concat "; " (List.map (fun (s, d, w) -> Printf.sprintf "%d->%d %h" s d w) arcs)))

let prop_layout_near_ties =
  QCheck.Test.make ~name:"layout equals the reference on near ties" ~count:800 near_tie_cfg
    (fun (max_chain_split, blocks, arcs) ->
      let cfg = mk_cfg (Array.to_list blocks) arcs 0 in
      Exttsp.layout ~max_chain_split cfg = Exttsp_ref.layout ~max_chain_split cfg)

(* A near tie the margin must resolve.  Chains [4 2] and [3] score exactly
   1.114 as x·y and as y·x, but x·y's bound sums the same terms in another
   order and rounds one ulp lower.  Y·x has the higher bound and is scored
   first; without the margin it would prune x·y, the first maximum in scan
   order, and end the layout [0 1 5 6 7 3 4 2]. *)
let test_layout_pinned_near_tie () =
  let cfg =
    mk_cfg
      [ (129, 0.5); (83, 0.3); (95, 0.3); (155, 0.5); (166, 0.3); (61, 0.5); (182, 0.4); (70, 0.3) ]
      [ (0, 1, 0.5); (1, 2, 0.3); (2, 3, 0.4); (3, 4, 0.4); (4, 5, 0.3); (5, 6, 0.3); (6, 7, 0.4);
        (4, 2, 0.3); (0, 5, 0.3); (7, 6, 0.3); (4, 2, 0.4)
      ]
      0
  in
  let reference = Exttsp_ref.layout ~max_chain_split:1 cfg in
  Alcotest.(check (array int)) "reference order" [| 0; 1; 5; 6; 7; 4; 2; 3 |] reference;
  Alcotest.(check (array int)) "layout" reference (Exttsp.layout ~max_chain_split:1 cfg)

(* Equal weights: every block and arc weighs 1, so most merges tie on gain
   and the pair table's scan order picks the winner.  Blocks 0-3 are hubs
   (a third of all arc ends), whose chains re-point many partners at once,
   and 20-60 blocks with three arcs each take the table past 128 keys, so
   its bucket count doubles mid-layout.  On this fixed seed, each of these
   changes to the tie order diverges from the reference on some draw:
   breaking ties in heap pop order, never doubling the buckets, scanning a
   bucket oldest key first, re-pointing keys in scan order, and keying the
   heap without the rounding margin. *)
let equal_weight_cfg =
  let gen =
    QCheck.Gen.(
      int_range 20 60 >>= fun n ->
      let block = frequency [ (1, int_range 0 3); (2, int_range 0 (n - 1)) ] in
      pair (array_repeat n (int_range 0 64)) (list_repeat (3 * n) (pair block block)))
  in
  QCheck.make gen ~print:(fun (sizes, arcs) ->
      Printf.sprintf "sizes=[%s] arcs=[%s]"
        (String.concat "; " (Array.to_list (Array.map string_of_int sizes)))
        (String.concat "; " (List.map (fun (s, d) -> Printf.sprintf "%d->%d" s d) arcs)))

let prop_layout_equal_weights =
  QCheck.Test.make ~name:"layout equals the reference on equal weights" ~count:30 equal_weight_cfg
    (fun (sizes, arcs) ->
      let cfg =
        mk_cfg
          (List.map (fun size -> (size, 1.)) (Array.to_list sizes))
          (List.map (fun (s, d) -> (s, d, 1.)) arcs)
          0
      in
      Exttsp.layout cfg = Exttsp_ref.layout cfg)

(* A tie only the re-pointing order breaks.  Once 16 and then 22 have
   merged into chain 7 ([16 7 22]), 22's partners 8 and 6 re-point to 7 as
   new keys (7, 8) and (6, 7).  Both land in bucket 9 and gain exactly as
   much, so the one inserted last, which scans first, wins: (7, 8), since
   the old keys (8, 22) and (6, 22) scan in buckets 11 and 12 and re-point
   in reverse.  Inserting in scan order or scanning a bucket oldest key
   first lets (6, 7) win instead, and so does a heap key without the
   rounding margin, which bounds both pairs two ulps under their gain. *)
let test_layout_pinned_repoint () =
  let cfg =
    mk_cfg
      (List.init 23 (fun _ -> (8, 1.)))
      [ (22, 6, 1.); (7, 22, 1.); (16, 7, 1.); (22, 8, 1.); (22, 16, 1.); (8, 17, 1.); (16, 7, 1.) ]
      0
  in
  let reference = Exttsp_ref.layout cfg in
  Alcotest.(check (array int)) "reference order"
    [| 0; 1; 2; 3; 4; 5; 16; 7; 22; 8; 17; 6; 9; 10; 11; 12; 13; 14; 15; 18; 19; 20; 21 |]
    reference;
  Alcotest.(check (array int)) "layout" reference (Exttsp.layout cfg)

(* [n] requests of the tiny app's mix, drawn from [seed]. *)
let tiny_traffic app ?(n = 200) seed engine =
  let mix = Workload.Request.mix app ~region:0 ~bucket:0 in
  let rng = Js_util.Rng.create seed in
  for _ = 1 to n do
    ignore (Workload.Request.invoke engine app (Workload.Request.sample rng mix))
  done

let tiny_options = { Jumpstart.Options.default with Jumpstart.Options.validate_packages = false }

(* A seeded package of [spec]'s app: [n] profiling and [n] instrumented
   requests, no self-validation. *)
let seeded spec n =
  let app = Workload.Codegen.generate spec in
  match
    Jumpstart.Seeder.run app.Workload.Codegen.repo tiny_options
      ~profile_traffic:(tiny_traffic app ~n 1) ~optimized_traffic:(tiny_traffic app ~n 2) ~region:0
      ~bucket:0 ~seeder_id:0 ()
  with
  | Ok outcome -> (app, outcome)
  | Error msg -> Alcotest.fail ("seeder failed: " ^ msg)

let tiny_seeded = lazy (seeded Workload.App_spec.tiny 200)

(* Production-shaped CFGs: the hot/cold arranged block orders of every
   translation of a seeded package, hashed.  Returns the hash, the number of
   translations with more than two hot blocks and the largest hot count. *)
let golden_orders (app, outcome) =
  let pkg = outcome.Jumpstart.Seeder.package in
  let config = Jit.Compiler.default_config in
  let buf = Buffer.create 4096 and multi_block = ref 0 and max_hot = ref 0 in
  List.iter
    (fun (fid, vf) ->
      let cfg = Jit.Vasm_profile.to_cfg pkg.Jumpstart.Package.vasm vf in
      let order, n_hot =
        Hotcold.arrange cfg ~threshold:config.Jit.Compiler.hot_threshold ~order_hot:Exttsp.layout
      in
      if n_hot > 2 then incr multi_block;
      max_hot := max !max_hot n_hot;
      Buffer.add_string buf (Printf.sprintf "%d/%d:" fid n_hot);
      Array.iter (fun b -> Buffer.add_string buf (Printf.sprintf " %d" b)) order;
      Buffer.add_char buf '\n')
    (Jit.Compiler.lower_all app.Workload.Codegen.repo pkg.Jumpstart.Package.counters config);
  (Digest.to_hex (Digest.string (Buffer.contents buf)), !multi_block, !max_hot)

(* The tiny app's orders, pinned to the ones the reference optimizer
   produced. *)
let test_golden_tiny_orders () =
  let md5, multi_block, _ = golden_orders (Lazy.force tiny_seeded) in
  Alcotest.(check bool) "translations with real layout work" true (multi_block >= 10);
  Alcotest.(check string) "block orders md5" "38c2d7eed11a592fcc42968580d8074d" md5

(* The churn-boot benchmark's app (120 workers, 8 endpoints), seeded as that
   benchmark seeds it: larger hot CFGs than the tiny app's, pinned to the
   orders of the layout that scored every merge candidate. *)
let test_golden_churn_orders () =
  let spec = { Workload.App_spec.tiny with n_workers = 120; n_endpoints = 8 } in
  let md5, multi_block, max_hot = golden_orders (seeded spec 400) in
  Alcotest.(check bool) "translations with real layout work" true (multi_block >= 10);
  Alcotest.(check bool) "hot CFGs past the split limit" true (max_hot > 128);
  Alcotest.(check string) "block orders md5" "a9052eb25b19d568fa6e02359f59b6bb" md5

(* The seeded package's bytes, and the machine counters of a short replay
   of its consumer boot, pinned: probe, layout and placement changes that
   mean to be behaviour-neutral must leave both unchanged. *)
let test_golden_tiny_package_and_replay () =
  let app, outcome = Lazy.force tiny_seeded in
  let repo = app.Workload.Codegen.repo in
  Alcotest.(check string) "package md5" "a0509a03e4e1b07b19cc18772acdfbdb"
    (Digest.to_hex (Digest.string outcome.Jumpstart.Seeder.bytes));
  let vm =
    match Jumpstart.Package.of_bytes repo outcome.Jumpstart.Seeder.bytes with
    | Error msg -> Alcotest.fail msg
    | Ok pkg -> (
      match Jumpstart.Consumer.boot_with_package repo tiny_options pkg with
      | Ok vm -> vm
      | Error msg -> Alcotest.fail msg)
  in
  let hier = Machine.Hierarchy.create Machine.Hierarchy.default_config in
  let sink =
    {
      Jit.Trace_adapter.fetch = (fun ~addr ~size -> Machine.Hierarchy.fetch hier ~addr ~size);
      branch = (fun ~pc ~target ~taken -> Machine.Hierarchy.branch hier ~pc ~target ~taken);
      load = (fun ~addr -> Machine.Hierarchy.load hier ~addr);
      store = (fun ~addr -> Machine.Hierarchy.store hier ~addr);
    }
  in
  let compiled = vm.Jumpstart.Consumer.compiled in
  let probes =
    Jit.Context.probes repo ~lookup:(Jit.Compiler.lookup compiled)
      (Jit.Trace_adapter.handler ~cache:compiled.Jit.Compiler.cache sink)
  in
  tiny_traffic app ~n:50 3 (Jumpstart.Consumer.serving_engine vm ~probes ());
  let s = Machine.Hierarchy.snapshot hier in
  let c (st : Machine.Cache.stats) = Printf.sprintf "%d/%d" st.accesses st.misses in
  Alcotest.(check string) "replay counters"
    "instrs 207500 cycles 209810.0 l1i 26238/386 l1d 7211/266 l2 652/652 llc 652/652 itlb \
     26238/10 dtlb 7211/50 branch 13254/327"
    (Printf.sprintf "instrs %d cycles %.1f l1i %s l1d %s l2 %s llc %s itlb %s dtlb %s branch %d/%d"
       s.instructions s.cycles (c s.l1i_s) (c s.l1d_s) (c s.l2_s) (c s.llc_s) (c s.itlb_s)
       (c s.dtlb_s) s.branch_s.Machine.Branch.branches s.branch_s.Machine.Branch.mispredicts)

(* --- hot/cold --- *)

let test_hotcold_split () =
  let cfg = mk_cfg [ (10, 100.); (10, 0.); (10, 90.); (10, 0.) ] [] 0 in
  let { Hotcold.hot; cold } = Hotcold.split cfg ~threshold:0.01 in
  Alcotest.(check (array int)) "hot" [| 0; 2 |] hot;
  Alcotest.(check (array int)) "cold" [| 1; 3 |] cold

let test_hotcold_entry_always_hot () =
  let cfg = mk_cfg [ (10, 0.); (10, 100.) ] [] 0 in
  let { Hotcold.hot; _ } = Hotcold.split cfg ~threshold:0.5 in
  Alcotest.(check bool) "entry kept hot" true (Array.exists (fun b -> b = 0) hot)

let test_hotcold_arrange () =
  let cfg =
    mk_cfg
      [ (10, 100.); (10, 0.); (10, 90.) ]
      [ (0, 2, 90.); (0, 1, 1.) ]
      0
  in
  let order, n_hot = Hotcold.arrange cfg ~threshold:0.01 ~order_hot:Exttsp.layout in
  Alcotest.(check int) "two hot blocks" 2 n_hot;
  Alcotest.(check bool) "permutation" true (is_permutation 3 order);
  Alcotest.(check int) "cold block last" 1 order.(2);
  Alcotest.(check (array int)) "hot pair laid for fallthrough" [| 0; 2 |] (Array.sub order 0 2)

(* --- C3 --- *)

let mk_nodes specs = Array.of_list (List.mapi (fun i (size, samples) -> { C3.id = i; size; samples }) specs)
let mk_arcs l = Array.of_list (List.map (fun (caller, callee, weight) -> { C3.caller; callee; weight }) l)

let test_c3_permutation () =
  let nodes = mk_nodes [ (100, 10.); (100, 5.); (100, 1.) ] in
  let arcs = mk_arcs [ (0, 1, 50.); (1, 2, 10.) ] in
  let order = C3.order ~nodes ~arcs () in
  Alcotest.(check bool) "permutation" true (is_permutation 3 order)

let test_c3_clusters_caller_callee () =
  (* hot pair (0 -> 1) must be adjacent, cold 2 elsewhere *)
  let nodes = mk_nodes [ (100, 100.); (100, 90.); (100, 1.) ] in
  let arcs = mk_arcs [ (0, 1, 90.); (2, 0, 1.) ] in
  let order = C3.order ~nodes ~arcs () in
  let pos = Array.make 3 0 in
  Array.iteri (fun i f -> pos.(f) <- i) order;
  Alcotest.(check int) "callee right after caller" (pos.(0) + 1) pos.(1)

let test_c3_size_cap () =
  (* merging would exceed the cluster cap, so the pair stays separate *)
  let nodes = mk_nodes [ (600, 10.); (600, 9.) ] in
  let arcs = mk_arcs [ (0, 1, 100.) ] in
  let capped = C3.order ~nodes ~arcs ~max_cluster_size:1000 () in
  Alcotest.(check bool) "still a permutation" true (is_permutation 2 capped);
  let merged = C3.order ~nodes ~arcs ~max_cluster_size:4096 () in
  Alcotest.(check (array int)) "merges when it fits" [| 0; 1 |] merged

let test_c3_call_distance_improves () =
  (* chain 0->1->2->3 with strong arcs vs hotness-only order *)
  let nodes = mk_nodes [ (500, 10.); (500, 40.); (500, 20.); (500, 30.) ] in
  let arcs = mk_arcs [ (0, 1, 100.); (1, 2, 100.); (2, 3, 100.) ] in
  let c3 = C3.order ~nodes ~arcs () in
  let hot = Layout.Baselines.by_hotness ~nodes in
  let d_c3 = C3.weighted_call_distance ~nodes ~arcs c3 in
  let d_hot = C3.weighted_call_distance ~nodes ~arcs hot in
  Alcotest.(check bool) "c3 shortens call distance" true (d_c3 <= d_hot)

let test_c3_deterministic () =
  let nodes = mk_nodes [ (10, 3.); (10, 3.); (10, 3.) ] in
  let arcs = mk_arcs [ (0, 1, 1.); (1, 2, 1.) ] in
  Alcotest.(check (array int)) "stable under ties" (C3.order ~nodes ~arcs ())
    (C3.order ~nodes ~arcs ())

(* --- baselines --- *)

let test_pettis_hansen () =
  let cfg =
    mk_cfg
      [ (10, 10.); (10, 9.); (10, 1.) ]
      [ (0, 1, 9.); (0, 2, 1.) ]
      0
  in
  let order = Layout.Baselines.pettis_hansen cfg in
  Alcotest.(check bool) "permutation" true (is_permutation 3 order);
  Alcotest.(check int) "entry first" 0 order.(0);
  Alcotest.(check int) "heavy arc chained" 1 order.(1)

let test_by_hotness () =
  let nodes = mk_nodes [ (10, 1.); (10, 5.); (10, 3.) ] in
  Alcotest.(check (array int)) "descending samples" [| 1; 2; 0 |]
    (Layout.Baselines.by_hotness ~nodes)

let () =
  Alcotest.run "layout"
    [ ("cfg", List.map cfg_rejects cfg_rejected_inputs);
      ( "exttsp",
        [ Alcotest.test_case "fallthrough score" `Quick test_score_fallthrough;
          Alcotest.test_case "forward window" `Quick test_score_forward_window;
          Alcotest.test_case "bad order rejected" `Quick test_score_rejects_bad_order;
          Alcotest.test_case "entry first" `Quick test_layout_entry_first;
          Alcotest.test_case "hot fallthrough" `Quick test_layout_prefers_hot_fallthrough;
          Alcotest.test_case "loop bodies" `Quick test_layout_loop_rotation;
          Alcotest.test_case "random cfgs" `Quick test_layout_improves_on_random_cfgs;
          QCheck_alcotest.to_alcotest prop_layout_matches_reference;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 23 |]) prop_layout_near_ties;
          Alcotest.test_case "pinned near tie" `Quick test_layout_pinned_near_tie;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 1 |]) prop_layout_equal_weights;
          Alcotest.test_case "pinned re-pointing order" `Quick test_layout_pinned_repoint;
          Alcotest.test_case "golden tiny-app orders" `Quick test_golden_tiny_orders;
          Alcotest.test_case "golden churn-app orders" `Quick test_golden_churn_orders;
          Alcotest.test_case "golden tiny-app package and replay" `Quick
            test_golden_tiny_package_and_replay
        ] );
      ( "hotcold",
        [ Alcotest.test_case "split" `Quick test_hotcold_split;
          Alcotest.test_case "entry always hot" `Quick test_hotcold_entry_always_hot;
          Alcotest.test_case "arrange" `Quick test_hotcold_arrange
        ] );
      ( "c3",
        [ Alcotest.test_case "permutation" `Quick test_c3_permutation;
          Alcotest.test_case "caller/callee adjacency" `Quick test_c3_clusters_caller_callee;
          Alcotest.test_case "size cap" `Quick test_c3_size_cap;
          Alcotest.test_case "call distance" `Quick test_c3_call_distance_improves;
          Alcotest.test_case "deterministic" `Quick test_c3_deterministic
        ] );
      ( "baselines",
        [ Alcotest.test_case "pettis-hansen" `Quick test_pettis_hansen;
          Alcotest.test_case "by hotness" `Quick test_by_hotness
        ] )
    ]
