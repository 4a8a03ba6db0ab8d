(* Stale-profile matching under code churn: the Workload.Churn generator,
   the Jit_profile.Stale_match transfer, and the consumer salvage path
   (Package.of_bytes_stale through Consumer.boot_dist). *)

module JS = Jumpstart
module DS = JS.Dist_store
module SM = Jit_profile.Stale_match
module R = Js_util.Rng
module Req = Workload.Request
module A = Minihack.Ast

let tiny = Workload.App_spec.tiny
let app = lazy (Workload.Codegen.generate tiny)

let traffic (a : Workload.Codegen.app) ?(seed = 1) ?(n = 200) () =
  let mix = Req.mix a ~region:0 ~bucket:0 in
  fun engine ->
    let rng = R.create seed in
    for _ = 1 to n do
      ignore (Req.invoke engine a (Req.sample rng mix))
    done

let make_package (a : Workload.Codegen.app) =
  let options = { JS.Options.default with JS.Options.validate_packages = false } in
  match
    JS.Seeder.run a.Workload.Codegen.repo options ~profile_traffic:(traffic a ~seed:1 ())
      ~optimized_traffic:(traffic a ~seed:2 ()) ~region:0 ~bucket:3 ~seeder_id:7 ()
  with
  | Ok outcome -> outcome
  | Error msg -> Alcotest.failf "seeder failed: %s" msg

let bytes_of = lazy (make_package (Lazy.force app)).JS.Seeder.bytes

(* --- churn generator --- *)

let test_churn_zero_is_identity () =
  let a = Lazy.force app in
  let b, stats = Workload.Churn.generate { Workload.Churn.seed = 5; rate = 0. } tiny in
  Alcotest.(check int) "nothing touched" 0 stats.Workload.Churn.decls_touched;
  Alcotest.(check (float 0.)) "zero distance" 0. stats.Workload.Churn.edit_distance;
  Alcotest.(check bool) "identical fingerprint" true
    (Hhbc.Repo.fingerprint a.Workload.Codegen.repo
    = Hhbc.Repo.fingerprint b.Workload.Codegen.repo)

let test_churn_nonzero_drifts () =
  let a = Lazy.force app in
  let b, stats = Workload.Churn.generate { Workload.Churn.seed = 5; rate = 0.3 } tiny in
  Alcotest.(check bool) "something touched" true
    (stats.Workload.Churn.decls_touched > 0 || stats.Workload.Churn.retargets > 0
   || stats.Workload.Churn.props_rotated || stats.Workload.Churn.workers_rotated);
  Alcotest.(check bool) "fingerprint moved" true
    (Hhbc.Repo.fingerprint a.Workload.Codegen.repo
    <> Hhbc.Repo.fingerprint b.Workload.Codegen.repo);
  (* the churned build still serves: run some traffic through it *)
  let vm =
    JS.Consumer.boot_without_jumpstart b.Workload.Codegen.repo JS.Options.disabled
      ~traffic:(traffic b ~seed:3 ~n:50 ())
  in
  Alcotest.(check bool) "churned app executes" true
    (Jit_profile.Counters.total_entries vm.JS.Consumer.counters > 0)

let test_churn_deterministic () =
  let cfg = { Workload.Churn.seed = 9; rate = 0.25 } in
  let a1, s1 = Workload.Churn.generate cfg tiny in
  let a2, s2 = Workload.Churn.generate cfg tiny in
  Alcotest.(check bool) "same stats" true (s1 = s2);
  Alcotest.(check bool) "same build" true
    (Hhbc.Repo.fingerprint a1.Workload.Codegen.repo
    = Hhbc.Repo.fingerprint a2.Workload.Codegen.repo)

(* --- matcher: function scope + positional tie-breaks --- *)

(* Two byte-identical functions: counters must stay with their owner, never
   cross-attribute through the shared block hashes. *)
let twin_repo names =
  let builder = Hhbc.Repo.Builder.create () in
  let body = [ A.Return (Some (A.Binop (A.Add, A.Var "x", A.Int 1))) ] in
  let program =
    List.map (fun name -> A.DFunc { A.fname = name; params = [ "x" ]; body }) names
  in
  ignore (Minihack.Compile.compile_program builder ~path:"twin.mh" program);
  let repo = Hhbc.Repo.Builder.finish builder in
  (match Hhbc.Repo.validate repo with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "twin repo invalid: %s" msg);
  repo

let fid_of repo name =
  match Hhbc.Repo.find_func_by_name repo name with
  | Some f -> f.Hhbc.Func.id
  | None -> Alcotest.failf "function %s missing" name

let raw_for fid counts entries =
  {
    Jit_profile.Counters.rc_blocks = [ (fid, counts) ];
    rc_arcs = [];
    rc_sites = [];
    rc_entries = [ (fid, entries) ];
    rc_cg = [];
    rc_props = [];
    rc_units = [];
  }

let test_identical_twins_match_by_name () =
  let old_repo = twin_repo [ "f"; "g" ] in
  let new_repo = twin_repo [ "f"; "g" ] in
  let shape = SM.shape_of_repo old_repo in
  let old_f = fid_of old_repo "f" in
  let n_blocks =
    Array.length (Hhbc.Func.basic_blocks (Hhbc.Repo.func old_repo old_f))
  in
  let tr = SM.transfer new_repo shape (raw_for old_f (Array.make n_blocks 7) 7) in
  let counters = tr.SM.counters in
  let new_f = fid_of new_repo "f" and new_g = fid_of new_repo "g" in
  (match Jit_profile.Counters.block_counts counters new_f with
  | Some counts -> Alcotest.(check int) "f keeps its counters" 7 counts.(0)
  | None -> Alcotest.fail "f unprofiled after transfer");
  Alcotest.(check bool) "g stays unprofiled" true
    (Jit_profile.Counters.block_counts counters new_g = None);
  Alcotest.(check int) "entries follow f" 7 (Jit_profile.Counters.func_entries counters new_f)

let test_identical_twins_renamed_positional () =
  (* both twins renamed: the strict-hash pass must pair them positionally
     (first old with first new), not arbitrarily *)
  let old_repo = twin_repo [ "f"; "g" ] in
  let new_repo = twin_repo [ "f_r"; "g_r" ] in
  let shape = SM.shape_of_repo old_repo in
  let old_f = fid_of old_repo "f" in
  let n_blocks =
    Array.length (Hhbc.Func.basic_blocks (Hhbc.Repo.func old_repo old_f))
  in
  let tr = SM.transfer new_repo shape (raw_for old_f (Array.make n_blocks 5) 5) in
  Alcotest.(check bool) "matched by hash, not name" true
    (tr.SM.stats.SM.funcs_by_strict_hash = 2 && tr.SM.stats.SM.funcs_by_name = 0);
  let new_f = fid_of new_repo "f_r" and new_g = fid_of new_repo "g_r" in
  (match Jit_profile.Counters.block_counts tr.SM.counters new_f with
  | Some counts -> Alcotest.(check int) "first old pairs with first new" 5 counts.(0)
  | None -> Alcotest.fail "f_r unprofiled after transfer");
  Alcotest.(check bool) "second twin untouched" true
    (Jit_profile.Counters.block_counts tr.SM.counters new_g = None)

(* --- salvage decode --- *)

let test_salvage_zero_churn_byte_identical () =
  let a = Lazy.force app in
  let bytes = Lazy.force bytes_of in
  match JS.Package.of_bytes_stale a.Workload.Codegen.repo bytes with
  | Error msg -> Alcotest.failf "salvage decode failed: %s" msg
  | Ok (pkg, stats) ->
    Alcotest.(check int) "every function matched" stats.SM.funcs_total stats.SM.funcs_matched;
    Alcotest.(check (float 0.)) "full quality" 1.0 (SM.quality stats);
    Alcotest.(check bool) "all matches strict (by name)" true
      (stats.SM.funcs_by_strict_hash = 0 && stats.SM.funcs_by_loose_hash = 0);
    Alcotest.(check int) "every counter transferred" stats.SM.counters_total
      stats.SM.counters_transferred;
    (* the acceptance bar: a churn-0 salvaged package re-serializes to the
       exact bytes the seeder published *)
    Alcotest.(check bool) "byte-identical round trip" true (JS.Package.to_bytes pkg = bytes)

let salvage_for rate churn_seed =
  let a = Lazy.force app in
  let bytes = Lazy.force bytes_of in
  let b, _ = Workload.Churn.generate { Workload.Churn.seed = churn_seed; rate } tiny in
  (b, JS.Package.of_bytes_stale b.Workload.Codegen.repo bytes, a)

let test_salvage_churned_passes_checks () =
  List.iter
    (fun rate ->
      let b, result, _ = salvage_for rate 11 in
      match result with
      | Error msg -> Alcotest.failf "salvage decode failed at rate %g: %s" rate msg
      | Ok (pkg, stats) ->
        Alcotest.(check bool)
          (Printf.sprintf "some functions matched at rate %g" rate)
          true
          (stats.SM.funcs_matched > 0);
        (* the transferred package must clear the full P3xx gate chain *)
        (match JS.Package_check.result b.Workload.Codegen.repo pkg with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "package check failed at rate %g: %s" rate msg))
    [ 0.05; 0.1; 0.3; 0.6 ]

(* --- consumer salvage boot --- *)

let seeded_store () =
  let outcome = make_package (Lazy.force app) in
  let store = JS.Store.create () in
  JS.Store.publish store ~region:0 ~bucket:3 outcome.JS.Seeder.bytes
    outcome.JS.Seeder.package.JS.Package.meta;
  store

let test_boot_salvages_stale_package () =
  (* package profiled on build A, consumer runs churned build B: the
     fingerprint gate refuses it, the salvage path boots it warm anyway *)
  let b, _ = Workload.Churn.generate { Workload.Churn.seed = 11; rate = 0.1 } tiny in
  let store = seeded_store () in
  let ds = DS.create ~repo:b.Workload.Codegen.repo store in
  let tel = Js_telemetry.create () in
  match
    JS.Consumer.boot_dist ~telemetry:tel b.Workload.Codegen.repo JS.Options.default ds
      (R.create 2) ~region:0 ~bucket:3 ~health_traffic:(traffic b ~seed:5 ~n:50 ())
      ~fallback_traffic:(traffic b ~seed:9 ()) ()
  with
  | JS.Consumer.Jump_started vm ->
    Alcotest.(check bool) "booted with a package" true (vm.JS.Consumer.package <> None);
    Alcotest.(check int) "one salvage" 1 (Js_telemetry.counter tel "consumer.salvages");
    Alcotest.(check bool) "funcs matched counted" true
      (Js_telemetry.counter tel "match.funcs_matched" > 0);
    Alcotest.(check bool) "blocks matched counted" true
      (Js_telemetry.counter tel "match.blocks_matched" > 0);
    Alcotest.(check bool) "counters transferred counted" true
      (Js_telemetry.counter tel "match.counters_transferred" > 0);
    Alcotest.(check int) "reject kind split" 1
      (Js_telemetry.counter tel "dist.fingerprint_mismatch")
  | JS.Consumer.Fell_back (_, reason) -> Alcotest.failf "expected salvage, fell back: %s" reason

let test_boot_salvage_threshold_rejects () =
  (* an impossible quality bar sends the salvage to the fallback path *)
  let b, _ = Workload.Churn.generate { Workload.Churn.seed = 11; rate = 0.1 } tiny in
  let store = seeded_store () in
  let ds = DS.create ~repo:b.Workload.Codegen.repo store in
  let tel = Js_telemetry.create () in
  let options = { JS.Options.default with JS.Options.salvage_min_match = 1.1 } in
  match
    JS.Consumer.boot_dist ~telemetry:tel b.Workload.Codegen.repo options ds (R.create 2)
      ~region:0 ~bucket:3 ~fallback_traffic:(traffic b ~seed:9 ()) ()
  with
  | JS.Consumer.Fell_back _ ->
    Alcotest.(check int) "no salvage recorded" 0 (Js_telemetry.counter tel "consumer.salvages");
    Alcotest.(check bool) "salvage stage burned the attempts" true
      (Js_telemetry.counter tel "consumer.salvage_failures"
      = options.JS.Options.max_boot_attempts)
  | JS.Consumer.Jump_started _ -> Alcotest.fail "quality bar above 1.0 must not jump-start"

(* A forged match table: one profiled function's first block start moves
   past a call site in that block, and the payload is re-framed with a valid
   CRC.  Salvage maps the call site through the block whose start it scans
   for, which would land before the function's first instruction, so the
   decode must reject the table and a consumer must fall back. *)
let tampered_bytes () =
  let a = Lazy.force app in
  let bytes = Lazy.force bytes_of in
  let module B = Js_util.Binio in
  let payload = B.unframe ~magic:JS.Package.magic ~expected_version:JS.Package.version bytes in
  let r = B.Reader.of_string payload in
  (* 7 meta varints, then the 6 repo-shape sizes *)
  for _ = 1 to 13 do
    ignore (B.Reader.varint r)
  done;
  let at () = String.length payload - B.Reader.remaining r in
  let head = String.sub payload 0 (at ()) in
  let shape = SM.read_shape r in
  let tail = String.sub payload (at ()) (B.Reader.remaining r) in
  let pkg =
    match JS.Package.of_bytes a.Workload.Codegen.repo bytes with
    | Ok pkg -> pkg
    | Error msg -> Alcotest.failf "pristine package must decode: %s" msg
  in
  let in_first_block (fid, site) =
    let starts = shape.SM.sh_funcs.(fid).SM.sg_block_starts in
    Array.length starts = 1 || site < starts.(1)
  in
  let sites = Jit_profile.Counters.call_site_list pkg.JS.Package.counters in
  match List.find_opt in_first_block sites with
  | None -> Alcotest.fail "no profiled call site in a first block"
  | Some (fid, site) ->
    let fs = shape.SM.sh_funcs.(fid) in
    let starts = Array.copy fs.SM.sg_block_starts in
    starts.(0) <- site + 1;
    let funcs = Array.copy shape.SM.sh_funcs in
    funcs.(fid) <- { fs with SM.sg_block_starts = starts };
    let w = B.Writer.create () in
    SM.write_shape w { shape with SM.sh_funcs = funcs };
    ( B.frame ~magic:JS.Package.magic ~version:JS.Package.version
        (head ^ B.Writer.contents w ^ tail),
      pkg.JS.Package.meta )

let test_tampered_match_table_rejected () =
  let a = Lazy.force app in
  let bytes, meta = tampered_bytes () in
  let churned, _ = Workload.Churn.generate { Workload.Churn.seed = 3; rate = 0.3 } tiny in
  List.iter
    (fun (what, repo) ->
      match JS.Package.of_bytes_stale repo bytes with
      | Ok _ -> Alcotest.failf "tampered match table salvaged against the %s build" what
      | Error _ -> ())
    [ ("same", a.Workload.Codegen.repo); ("churned", churned.Workload.Codegen.repo) ];
  let store = JS.Store.create () in
  JS.Store.publish store ~region:0 ~bucket:3 bytes meta;
  let ds = DS.create ~repo:churned.Workload.Codegen.repo store in
  let tel = Js_telemetry.create () in
  match
    JS.Consumer.boot_dist ~telemetry:tel churned.Workload.Codegen.repo JS.Options.default ds
      (R.create 2) ~region:0 ~bucket:3 ~fallback_traffic:(traffic churned ~seed:9 ()) ()
  with
  | JS.Consumer.Fell_back _ ->
    Alcotest.(check int) "every attempt burned in salvage"
      JS.Options.default.JS.Options.max_boot_attempts
      (Js_telemetry.counter tel "consumer.salvage_failures")
  | JS.Consumer.Jump_started _ -> Alcotest.fail "tampered match table must not jump-start"

(* --- qcheck properties --- *)

let prop_zero_churn_salvage_identity =
  QCheck.Test.make ~name:"zero-churn salvage is byte-identical" ~count:3
    QCheck.(int_range 1 1000)
    (fun seed ->
      (* churn with rate 0 under any seed must leave the build — and
         therefore the salvaged package — untouched *)
      let a = Lazy.force app in
      let b, _ = Workload.Churn.generate { Workload.Churn.seed = seed; rate = 0. } tiny in
      let bytes = Lazy.force bytes_of in
      Hhbc.Repo.fingerprint a.Workload.Codegen.repo
      = Hhbc.Repo.fingerprint b.Workload.Codegen.repo
      &&
      match JS.Package.of_bytes_stale b.Workload.Codegen.repo bytes with
      | Ok (pkg, stats) ->
        stats.SM.funcs_matched = stats.SM.funcs_total && JS.Package.to_bytes pkg = bytes
      | Error _ -> false)

let prop_matcher_deterministic =
  QCheck.Test.make ~name:"matcher deterministic for a fixed seed" ~count:4
    QCheck.(pair (int_range 1 1000) (int_range 1 5))
    (fun (seed, r10) ->
      let rate = float_of_int r10 /. 10. in
      let bytes = Lazy.force bytes_of in
      let b1, s1 = Workload.Churn.generate { Workload.Churn.seed = seed; rate } tiny in
      let b2, s2 = Workload.Churn.generate { Workload.Churn.seed = seed; rate } tiny in
      s1 = s2
      &&
      match
        ( JS.Package.of_bytes_stale b1.Workload.Codegen.repo bytes,
          JS.Package.of_bytes_stale b2.Workload.Codegen.repo bytes )
      with
      | Ok (p1, st1), Ok (p2, st2) ->
        st1 = st2 && JS.Package.to_bytes p1 = JS.Package.to_bytes p2
      | _ -> false)

let prop_salvaged_packages_pass_checks =
  QCheck.Test.make ~name:"salvaged packages pass P3xx checks" ~count:6
    QCheck.(pair (int_range 1 1000) (int_range 0 6))
    (fun (seed, r10) ->
      let rate = float_of_int r10 /. 10. in
      let bytes = Lazy.force bytes_of in
      let b, _ = Workload.Churn.generate { Workload.Churn.seed = seed; rate } tiny in
      match JS.Package.of_bytes_stale b.Workload.Codegen.repo bytes with
      | Ok (pkg, _) -> JS.Package_check.result b.Workload.Codegen.repo pkg = Ok ()
      | Error _ -> false)

let () =
  Alcotest.run "churn"
    [ ( "generator",
        [ Alcotest.test_case "zero churn is identity" `Quick test_churn_zero_is_identity;
          Alcotest.test_case "nonzero churn drifts" `Quick test_churn_nonzero_drifts;
          Alcotest.test_case "deterministic" `Quick test_churn_deterministic
        ] );
      ( "matcher",
        [ Alcotest.test_case "identical twins match by name" `Quick
            test_identical_twins_match_by_name;
          Alcotest.test_case "renamed twins pair positionally" `Quick
            test_identical_twins_renamed_positional
        ] );
      ( "salvage",
        [ Alcotest.test_case "zero churn byte-identical" `Quick
            test_salvage_zero_churn_byte_identical;
          Alcotest.test_case "churned packages pass checks" `Quick
            test_salvage_churned_passes_checks;
          Alcotest.test_case "boot salvages stale package" `Quick
            test_boot_salvages_stale_package;
          Alcotest.test_case "quality threshold rejects" `Quick
            test_boot_salvage_threshold_rejects;
          Alcotest.test_case "tampered match table rejected" `Quick
            test_tampered_match_table_rejected
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_zero_churn_salvage_identity;
            prop_matcher_deterministic;
            prop_salvaged_packages_pass_checks
          ] )
    ]
