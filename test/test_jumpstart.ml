(* The Jump-Start core: options, packages, store, seeder/consumer workflows,
   reliability machinery. *)

module JS = Jumpstart
module Req = Workload.Request

let app = lazy (Workload.Codegen.generate Workload.App_spec.tiny)

let traffic ?(seed = 1) ?(n = 200) () =
  let a = Lazy.force app in
  let mix = Req.mix a ~region:0 ~bucket:0 in
  fun engine ->
    let rng = Js_util.Rng.create seed in
    for _ = 1 to n do
      ignore (Req.invoke engine a (Req.sample rng mix))
    done

let make_package () =
  let a = Lazy.force app in
  let options = { JS.Options.default with JS.Options.validate_packages = false } in
  match
    JS.Seeder.run a.Workload.Codegen.repo options ~profile_traffic:(traffic ~seed:1 ())
      ~optimized_traffic:(traffic ~seed:2 ()) ~region:0 ~bucket:3 ~seeder_id:7 ()
  with
  | Ok outcome -> outcome
  | Error msg -> Alcotest.failf "seeder failed: %s" msg

(* --- package serialization --- *)

let test_package_roundtrip () =
  let a = Lazy.force app in
  let outcome = make_package () in
  match JS.Package.of_bytes a.Workload.Codegen.repo outcome.JS.Seeder.bytes with
  | Error msg -> Alcotest.fail msg
  | Ok p ->
    let orig = outcome.JS.Seeder.package in
    Alcotest.(check bool) "meta survives" true (p.JS.Package.meta = orig.JS.Package.meta);
    Alcotest.(check (array int)) "func order survives" orig.JS.Package.func_order
      p.JS.Package.func_order;
    Alcotest.(check (array int)) "preload units survive" orig.JS.Package.preload_units
      p.JS.Package.preload_units;
    (* counters must round-trip *)
    Alcotest.(check int) "entries" (Jit_profile.Counters.total_entries orig.JS.Package.counters)
      (Jit_profile.Counters.total_entries p.JS.Package.counters);
    Alcotest.(check bool) "call graph" true
      (Jit_profile.Counters.call_graph orig.JS.Package.counters
      = Jit_profile.Counters.call_graph p.JS.Package.counters)

(* A zero count is data, not absence: an arc held with count 0 (imported or
   decoded) must come back from [of_bytes] and re-encode to the same bytes,
   in the tier-1 and the vasm arc sections alike. *)
let test_package_zero_count_arcs () =
  let a = Lazy.force app in
  let repo = a.Workload.Codegen.repo in
  let pkg = (make_package ()).JS.Seeder.package in
  let counters = Jit_profile.Counters.copy pkg.JS.Package.counters in
  let fid = List.hd (Jit_profile.Counters.profiled_funcs counters) in
  let n_blocks = Array.length (Hhbc.Func.basic_blocks (Hhbc.Repo.func repo fid)) in
  let recorded = List.map (fun (s, d, _) -> (s, d)) (Jit_profile.Counters.arc_counts counters fid) in
  let src, dst =
    List.find
      (fun arc -> not (List.mem arc recorded))
      (List.concat_map (fun s -> List.init n_blocks (fun d -> (s, d))) (List.init n_blocks Fun.id))
  in
  Jit_profile.Counters.import_arc counters fid ~src ~dst 0;
  let module W = Js_util.Binio.Writer in
  let w = W.create () in
  W.list w (fun () -> W.varint w fid; W.array w (W.f64 w) [| 3.; 1. |]) [ () ];
  W.list w
    (fun () ->
      W.varint w fid;
      W.list w (fun (s, d, c) -> W.varint w s; W.varint w d; W.f64 w c) [ (0, 1, 0.); (1, 0, 2.) ])
    [ () ];
  W.list w ignore [];
  W.list w ignore [];
  let vasm = Jit.Vasm_profile.deserialize (Js_util.Binio.Reader.of_string (W.contents w)) in
  let bytes = JS.Package.to_bytes { pkg with JS.Package.counters; vasm } in
  match JS.Package.of_bytes repo bytes with
  | Error msg -> Alcotest.fail msg
  | Ok p ->
    Alcotest.(check bool) "tier-1 zero arc kept" true
      (List.mem (src, dst, 0) (Jit_profile.Counters.arc_counts p.JS.Package.counters fid));
    Alcotest.(check bool) "vasm zero arc kept" true
      (List.mem (fid, [ (0, 1, 0.); (1, 0, 2.) ]) (Jit.Vasm_profile.profiled_arcs p.JS.Package.vasm));
    Alcotest.(check bool) "re-encodes byte-identically" true (JS.Package.to_bytes p = bytes)

let test_package_detects_corruption () =
  let a = Lazy.force app in
  let outcome = make_package () in
  let bytes = outcome.JS.Seeder.bytes in
  (* flip every 97th byte position one at a time; decode must never crash,
     only return Error or (rarely) succeed if the flip missed the payload *)
  let pos = ref 8 in
  let rejected = ref 0 and total = ref 0 in
  while !pos < String.length bytes do
    let b = Bytes.of_string bytes in
    Bytes.set b !pos (Char.chr (Char.code (Bytes.get b !pos) lxor 0xff));
    incr total;
    (match JS.Package.of_bytes a.Workload.Codegen.repo (Bytes.to_string b) with
    | Error _ -> incr rejected
    | Ok _ -> ());
    pos := !pos + 97
  done;
  Alcotest.(check int) "every corruption detected" !total !rejected

let test_package_coverage_gate () =
  let outcome = make_package () in
  let p = outcome.JS.Seeder.package in
  let strict = { JS.Options.default with JS.Options.min_coverage_funcs = 10_000 } in
  Alcotest.(check bool) "too few funcs rejected" true
    (Result.is_error (JS.Package.check_coverage p strict));
  let strict2 = { JS.Options.default with JS.Options.min_coverage_entries = max_int } in
  Alcotest.(check bool) "too few entries rejected" true
    (Result.is_error (JS.Package.check_coverage p strict2));
  Alcotest.(check bool) "normal thresholds pass" true
    (JS.Package.check_coverage p JS.Options.default = Ok ())

(* --- store --- *)

let test_store_publish_pick () =
  let outcome = make_package () in
  let store = JS.Store.create () in
  let meta = outcome.JS.Seeder.package.JS.Package.meta in
  Alcotest.(check int) "empty" 0 (JS.Store.count store ~region:0 ~bucket:3);
  JS.Store.publish store ~region:0 ~bucket:3 outcome.JS.Seeder.bytes meta;
  JS.Store.publish store ~region:0 ~bucket:3 outcome.JS.Seeder.bytes meta;
  Alcotest.(check int) "two packages" 2 (JS.Store.count store ~region:0 ~bucket:3);
  let rng = Js_util.Rng.create 1 in
  Alcotest.(check bool) "pick hits" true (JS.Store.pick_random store rng ~region:0 ~bucket:3 <> None);
  Alcotest.(check bool) "other key empty" true
    (JS.Store.pick_random store rng ~region:0 ~bucket:4 = None)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_store_corrupt_empty_payload () =
  (* regression: an empty-payload frame used to crash [corrupt_one
     ~semantic:true] with [Invalid_argument] from [Rng.int ~bound:0] *)
  let outcome = make_package () in
  let meta = outcome.JS.Seeder.package.JS.Package.meta in
  let store = JS.Store.create () in
  let empty = Js_util.Binio.frame ~magic:JS.Package.magic ~version:JS.Package.version "" in
  JS.Store.publish store ~region:0 ~bucket:1 empty meta;
  let rng = Js_util.Rng.create 5 in
  Alcotest.(check bool) "returns true instead of raising" true
    (JS.Store.corrupt_one ~semantic:true store rng ~region:0 ~bucket:1);
  match JS.Store.pick_random store (Js_util.Rng.create 1) ~region:0 ~bucket:1 with
  | None -> Alcotest.fail "package vanished"
  | Some (bytes, _) -> Alcotest.(check bool) "frame was damaged" true (bytes <> empty)

let test_store_pick_draw_identical () =
  (* [pick_random] no longer materializes an array per call; it must stay
     draw-identical to the historical [Rng.pick rng (Array.of_list entries)]
     so every seeded simulation replays bit-for-bit *)
  let outcome = make_package () in
  let meta = outcome.JS.Seeder.package.JS.Package.meta in
  let store = JS.Store.create () in
  for i = 0 to 4 do
    JS.Store.publish store ~region:0 ~bucket:2 (Printf.sprintf "pkg-%d" i) meta
  done;
  (* publish prepends, so the internal entry order is newest-first *)
  let reference = [| "pkg-4"; "pkg-3"; "pkg-2"; "pkg-1"; "pkg-0" |] in
  let rng = Js_util.Rng.create 77 in
  let witness = Js_util.Rng.copy rng in
  for _ = 1 to 50 do
    match JS.Store.pick_random store rng ~region:0 ~bucket:2 with
    | None -> Alcotest.fail "pick missed"
    | Some (bytes, _) ->
      Alcotest.(check string) "draw-identical pick" (Js_util.Rng.pick witness reference) bytes
  done

let test_store_corrupt_hits_payload_span () =
  (* the non-semantic flip must land inside the payload span — never the
     magic/version/length header or the CRC word — so the CRC check is the
     rejection path exercised *)
  let a = Lazy.force app in
  let outcome = make_package () in
  let meta = outcome.JS.Seeder.package.JS.Package.meta in
  let store = JS.Store.create () in
  JS.Store.publish store ~region:0 ~bucket:6 outcome.JS.Seeder.bytes meta;
  let rng = Js_util.Rng.create 9 in
  Alcotest.(check bool) "corrupted" true (JS.Store.corrupt_one store rng ~region:0 ~bucket:6);
  match JS.Store.pick_random store (Js_util.Rng.create 1) ~region:0 ~bucket:6 with
  | None -> Alcotest.fail "package vanished"
  | Some (bytes, _) -> (
    match JS.Package.of_bytes a.Workload.Codegen.repo bytes with
    | Ok _ -> Alcotest.fail "corruption undetected"
    | Error msg -> Alcotest.(check bool) "rejected by the CRC check" true (contains msg "CRC"))

(* --- seeder --- *)

let test_seeder_produces_valid_package () =
  let outcome = make_package () in
  let p = outcome.JS.Seeder.package in
  Alcotest.(check int) "region" 0 p.JS.Package.meta.JS.Package.region;
  Alcotest.(check int) "bucket" 3 p.JS.Package.meta.JS.Package.bucket;
  Alcotest.(check bool) "profiled functions" true
    (p.JS.Package.meta.JS.Package.n_profiled_funcs > 5);
  Alcotest.(check bool) "function order nonempty" true (Array.length p.JS.Package.func_order > 0);
  Alcotest.(check bool) "preload units recorded" true (Array.length p.JS.Package.preload_units > 0);
  Alcotest.(check bool) "measured profile present" true
    (Jit.Vasm_profile.call_graph p.JS.Package.vasm <> [])

let test_seeder_with_validation_succeeds () =
  let a = Lazy.force app in
  match
    JS.Seeder.run a.Workload.Codegen.repo JS.Options.default ~profile_traffic:(traffic ~seed:1 ())
      ~optimized_traffic:(traffic ~seed:2 ()) ~validation_traffic:(traffic ~seed:3 ~n:30 ())
      ~region:0 ~bucket:0 ~seeder_id:1 ()
  with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "validation should pass: %s" msg

let test_seeder_validation_catches_jit_bug () =
  let a = Lazy.force app in
  match
    JS.Seeder.run a.Workload.Codegen.repo JS.Options.default ~profile_traffic:(traffic ~seed:1 ())
      ~optimized_traffic:(traffic ~seed:2 ()) ~jit_bug:(fun _ -> true) ~region:0 ~bucket:0
      ~seeder_id:1 ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad package must not pass validation"

(* --- consumer --- *)

let test_consumer_boot_and_serve () =
  let a = Lazy.force app in
  let outcome = make_package () in
  match JS.Consumer.boot_with_package a.Workload.Codegen.repo JS.Options.default outcome.JS.Seeder.package with
  | Error msg -> Alcotest.fail msg
  | Ok vm ->
    Alcotest.(check bool) "translations" true (vm.JS.Consumer.compiled.Jit.Compiler.n_translations > 0);
    let engine = JS.Consumer.serving_engine vm () in
    (traffic ~seed:9 ~n:50 ()) engine;
    Alcotest.(check bool) "served" true (Interp.Engine.steps engine > 1000)

let test_consumer_results_match_no_jumpstart () =
  (* semantics must be identical with and without Jump-Start *)
  let a = Lazy.force app in
  let outcome = make_package () in
  let run vm =
    let engine = JS.Consumer.serving_engine vm () in
    let rng = Js_util.Rng.create 31 in
    let mix = Req.mix a ~region:0 ~bucket:0 in
    List.init 30 (fun _ -> Req.invoke engine a (Req.sample rng mix))
  in
  let js_vm =
    Result.get_ok
      (JS.Consumer.boot_with_package a.Workload.Codegen.repo JS.Options.default
         outcome.JS.Seeder.package)
  in
  let plain_vm =
    JS.Consumer.boot_without_jumpstart a.Workload.Codegen.repo JS.Options.disabled
      ~traffic:(traffic ~seed:1 ())
  in
  Alcotest.(check bool) "identical results" true (run js_vm = run plain_vm)

let boot_env () =
  let a = Lazy.force app in
  let outcome = make_package () in
  let store = JS.Store.create () in
  JS.Store.publish store ~region:0 ~bucket:3 outcome.JS.Seeder.bytes
    outcome.JS.Seeder.package.JS.Package.meta;
  (a, store)

let test_boot_jump_starts () =
  let a, store = boot_env () in
  let rng = Js_util.Rng.create 4 in
  match
    JS.Consumer.boot_dist a.Workload.Codegen.repo JS.Options.default (JS.Dist_store.create store) rng
      ~region:0 ~bucket:3
      ~health_traffic:(traffic ~seed:5 ~n:20 ()) ~fallback_traffic:(traffic ~seed:6 ()) ()
  with
  | JS.Consumer.Jump_started _ -> ()
  | JS.Consumer.Fell_back (_, reason) -> Alcotest.failf "unexpected fallback: %s" reason

let test_boot_fallback_no_packages () =
  let a = Lazy.force app in
  let store = JS.Store.create () in
  let rng = Js_util.Rng.create 4 in
  match
    JS.Consumer.boot_dist a.Workload.Codegen.repo JS.Options.default (JS.Dist_store.create store) rng
      ~region:0 ~bucket:3
      ~fallback_traffic:(traffic ~seed:6 ()) ()
  with
  | JS.Consumer.Fell_back (vm, _) ->
    Alcotest.(check bool) "fallback vm compiled" true
      (vm.JS.Consumer.compiled.Jit.Compiler.n_translations > 0);
    Alcotest.(check bool) "no package" true (vm.JS.Consumer.package = None)
  | JS.Consumer.Jump_started _ -> Alcotest.fail "cannot jump-start from an empty store"

let test_boot_fallback_when_disabled () =
  let a, store = boot_env () in
  let rng = Js_util.Rng.create 4 in
  match
    JS.Consumer.boot_dist a.Workload.Codegen.repo JS.Options.disabled (JS.Dist_store.create store) rng
      ~region:0 ~bucket:3
      ~fallback_traffic:(traffic ~seed:6 ()) ()
  with
  | JS.Consumer.Fell_back (_, reason) ->
    Alcotest.(check bool) "reason mentions disabled" true
      (String.length reason > 0)
  | JS.Consumer.Jump_started _ -> Alcotest.fail "disabled must not jump-start"

let test_boot_fallback_on_corruption () =
  let a, store = boot_env () in
  let rng = Js_util.Rng.create 4 in
  Alcotest.(check bool) "corrupted" true (JS.Store.corrupt_one store rng ~region:0 ~bucket:3);
  match
    JS.Consumer.boot_dist a.Workload.Codegen.repo JS.Options.default (JS.Dist_store.create store) rng
      ~region:0 ~bucket:3
      ~fallback_traffic:(traffic ~seed:6 ()) ()
  with
  | JS.Consumer.Fell_back (_, _) -> ()
  | JS.Consumer.Jump_started _ -> Alcotest.fail "corrupt-only store must fall back"

let test_boot_retries_on_jit_bug () =
  let a, store = boot_env () in
  let rng = Js_util.Rng.create 4 in
  let attempts = ref 0 in
  let jit_bug _ =
    incr attempts;
    true
  in
  match
    JS.Consumer.boot_dist a.Workload.Codegen.repo JS.Options.default (JS.Dist_store.create store) rng
      ~region:0 ~bucket:3
      ~jit_bug ~fallback_traffic:(traffic ~seed:6 ()) ()
  with
  | JS.Consumer.Fell_back (_, _) ->
    Alcotest.(check int) "bounded retries" JS.Options.default.JS.Options.max_boot_attempts !attempts
  | JS.Consumer.Jump_started _ -> Alcotest.fail "jit bug must prevent jump start"

(* The §VI-A retry loop must perform EXACTLY max_boot_attempts package draws
   before falling back — pinned via the telemetry counters so an off-by-one
   in either direction (one draw too many or too few) fails the test. *)
let attempt_pinning max_boot_attempts =
  let a, store = boot_env () in
  let options = { JS.Options.default with JS.Options.max_boot_attempts } in
  let rng = Js_util.Rng.create 4 in
  let tel = Js_telemetry.create () in
  (match
     JS.Consumer.boot_dist ~telemetry:tel a.Workload.Codegen.repo options (JS.Dist_store.create store)
       rng ~region:0
       ~bucket:3
       ~jit_bug:(fun _ -> true)
       ~fallback_traffic:(traffic ~seed:6 ()) ()
   with
  | JS.Consumer.Fell_back (_, _) -> ()
  | JS.Consumer.Jump_started _ -> Alcotest.fail "jit bug must prevent jump start");
  Alcotest.(check int) "boot_attempts counter" max_boot_attempts
    (Js_telemetry.counter tel "consumer.boot_attempts");
  Alcotest.(check int) "exactly N package draws" max_boot_attempts
    (Js_telemetry.counter tel "store.picks");
  let attempts_logged =
    List.length
      (List.filter
         (function _, Js_telemetry.Boot_attempt _ -> true | _ -> false)
         (Js_telemetry.events tel))
  in
  Alcotest.(check int) "Boot_attempt events" max_boot_attempts attempts_logged;
  Alcotest.(check bool) "Fallback event recorded" true
    (List.exists
       (function _, Js_telemetry.Fallback _ -> true | _ -> false)
       (Js_telemetry.events tel));
  Alcotest.(check int) "one fallback" 1 (Js_telemetry.counter tel "consumer.fallbacks")

let test_boot_attempts_pinned_default () =
  attempt_pinning JS.Options.default.JS.Options.max_boot_attempts

let test_boot_attempts_pinned_custom () = attempt_pinning 5

let test_package_truncation_never_escapes () =
  (* cut the serialized package short at many boundaries: of_bytes must
     return Error, never raise *)
  let a = Lazy.force app in
  let outcome = make_package () in
  let bytes = outcome.JS.Seeder.bytes in
  let cut = ref 0 in
  while !cut < String.length bytes do
    (match JS.Package.of_bytes a.Workload.Codegen.repo (String.sub bytes 0 !cut) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation at %d accepted" !cut
    | exception e ->
      Alcotest.failf "truncation at %d raised %s" !cut (Printexc.to_string e));
    cut := !cut + 37
  done

let test_store_selection_counts () =
  let outcome = make_package () in
  let store = JS.Store.create () in
  let meta = outcome.JS.Seeder.package.JS.Package.meta in
  for _ = 1 to 3 do
    JS.Store.publish store ~region:0 ~bucket:3 outcome.JS.Seeder.bytes meta
  done;
  let rng = Js_util.Rng.create 7 in
  let tel = Js_telemetry.create () in
  let draws = 40 in
  for _ = 1 to draws do
    ignore (JS.Store.pick_random ~telemetry:tel store rng ~region:0 ~bucket:3)
  done;
  let counts = JS.Store.selection_counts store ~region:0 ~bucket:3 in
  Alcotest.(check int) "one row per package" 3 (List.length counts);
  Alcotest.(check int) "rows sum to total draws" draws
    (List.fold_left (fun acc (_, n) -> acc + n) 0 counts);
  Alcotest.(check int) "telemetry agrees" draws (Js_telemetry.counter tel "store.picks");
  List.iter
    (fun (_, n) ->
      Alcotest.(check bool) "roughly uniform selection" true (n > 0 && n < draws))
    counts

let test_prop_hotness_rollup () =
  (* accesses recorded against subclasses roll up to the declaring class *)
  let src =
    {|class P { prop $x = 0; }
      class Q extends P { }
      function main() { $q = new Q(); $q->x = 1; return $q->x; }|}
  in
  let repo = Minihack.Compile.compile_source ~path:"t.mh" src in
  let counters = Jit_profile.Counters.create repo in
  let layouts = Mh_runtime.Class_layout.build repo ~reorder:false ~hotness:(fun _ _ -> 0) in
  let engine =
    Interp.Engine.create ~probes:(Jit_profile.Collector.probes counters) repo
      (Mh_runtime.Heap.create repo layouts)
  in
  ignore (Interp.Engine.run_main engine);
  let p = (Option.get (Hhbc.Repo.find_class_by_name repo "P")).Hhbc.Class_def.id in
  let q = (Option.get (Hhbc.Repo.find_class_by_name repo "Q")).Hhbc.Class_def.id in
  let x = Option.get (Hhbc.Repo.find_name repo "x") in
  Alcotest.(check int) "raw count on Q" 2 (Jit_profile.Counters.prop_access_count counters q x);
  Alcotest.(check int) "raw count on P is 0" 0 (Jit_profile.Counters.prop_access_count counters p x);
  Alcotest.(check int) "rollup credits P" 2 (Jit_profile.Counters.prop_hotness counters p x)

let () =
  Alcotest.run "jumpstart"
    [ ( "package",
        [ Alcotest.test_case "roundtrip" `Quick test_package_roundtrip;
          Alcotest.test_case "corruption detection" `Quick test_package_detects_corruption;
          Alcotest.test_case "coverage gate" `Quick test_package_coverage_gate
        ] );
      ( "store",
        [ Alcotest.test_case "publish/pick" `Quick test_store_publish_pick;
          Alcotest.test_case "selection counts" `Quick test_store_selection_counts;
          Alcotest.test_case "semantic corrupt of empty payload" `Quick
            test_store_corrupt_empty_payload;
          Alcotest.test_case "pick draw-identical to array pick" `Quick
            test_store_pick_draw_identical;
          Alcotest.test_case "flip lands in payload span" `Quick
            test_store_corrupt_hits_payload_span
        ] );
      ( "seeder",
        [ Alcotest.test_case "valid package" `Quick test_seeder_produces_valid_package;
          Alcotest.test_case "validation passes" `Quick test_seeder_with_validation_succeeds;
          Alcotest.test_case "validation catches bug" `Quick test_seeder_validation_catches_jit_bug
        ] );
      ( "consumer",
        [ Alcotest.test_case "boot and serve" `Quick test_consumer_boot_and_serve;
          Alcotest.test_case "semantics preserved" `Quick test_consumer_results_match_no_jumpstart;
          Alcotest.test_case "jump-start from store" `Quick test_boot_jump_starts;
          Alcotest.test_case "fallback: empty store" `Quick test_boot_fallback_no_packages;
          Alcotest.test_case "fallback: disabled" `Quick test_boot_fallback_when_disabled;
          Alcotest.test_case "fallback: corruption" `Quick test_boot_fallback_on_corruption;
          Alcotest.test_case "bounded retries" `Quick test_boot_retries_on_jit_bug;
          Alcotest.test_case "attempts pinned (default)" `Quick
            test_boot_attempts_pinned_default;
          Alcotest.test_case "attempts pinned (custom)" `Quick test_boot_attempts_pinned_custom
        ] );
      ( "package robustness",
        [ Alcotest.test_case "truncation never escapes" `Quick
            test_package_truncation_never_escapes;
          Alcotest.test_case "zero-count arcs round-trip" `Quick test_package_zero_count_arcs
        ] );
      ("profile", [ Alcotest.test_case "prop hotness rollup" `Quick test_prop_hotness_rollup ])
    ]
