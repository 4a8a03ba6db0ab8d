(* Static verifier: negative corpus of hand-built bad bodies, package
   decode-gap coverage, and the consumer-boot rejection acceptance path. *)

module I = Hhbc.Instr
module F = Hhbc.Func
module D = Js_analysis.Diag
module V = Js_analysis.Verify
module B = Js_util.Binio
module JS = Jumpstart

let mk_func ?(name = "f") ?(n_params = 0) ?(n_locals = 2) ?class_id body =
  { F.id = 0; name; unit_id = 0; class_id; n_params; n_locals; body = Array.of_list body }

(* One-function repo around a hand-built body. *)
let repo_of ?n_params ?n_locals body =
  let b = Hhbc.Repo.Builder.create () in
  let fid = Hhbc.Repo.Builder.add_func b (mk_func ?n_params ?n_locals body) in
  ignore
    (Hhbc.Repo.Builder.add_unit b
       { Hhbc.Unit_def.id = 0; path = "bad.mh"; funcs = [| fid |]; classes = [||];
         main = Some fid; load_cost_bytes = 0 });
  Hhbc.Repo.Builder.finish b

let codes diags = List.map (fun d -> d.D.code) diags

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let check_body ?n_params ?n_locals body =
  let repo = repo_of ?n_params ?n_locals body in
  V.check_func repo (Hhbc.Repo.func repo 0)

let expect_error what code diags =
  Alcotest.(check bool)
    (Printf.sprintf "%s reports %s (got: %s)" what code (String.concat "," (codes diags)))
    true
    (List.exists (fun d -> d.D.code = code && D.is_error d) diags)

let expect_warning what code diags =
  Alcotest.(check bool)
    (Printf.sprintf "%s warns %s (got: %s)" what code (String.concat "," (codes diags)))
    true
    (List.exists (fun d -> d.D.code = code && not (D.is_error d)) diags)

(* --- negative corpus: structural bytecode checks --- *)

let test_jump_oob () =
  expect_error "jump past the end" "V101" (check_body [ I.Jmp 99 ]);
  expect_error "negative jump" "V101" (check_body [ I.LitBool true; I.JmpZ (-1); I.LitNull; I.Ret ])

let test_stack_underflow () =
  expect_error "pop of empty stack" "V102" (check_body [ I.Pop; I.LitNull; I.Ret ]);
  expect_error "binop on 1 operand" "V102" (check_body [ I.LitInt 1; I.BinOp I.Add; I.Ret ])

let test_join_depth_mismatch () =
  (* then-arm leaves 2 values, else-arm leaves 1; they join at the Ret *)
  let diags =
    check_body
      [ I.LitBool true; I.JmpZ 5; I.LitInt 1; I.LitInt 2; I.Jmp 6; I.LitInt 3; I.Ret ]
  in
  expect_error "must-equal depth at join" "V103" diags

let test_fall_off_end () =
  expect_error "body without terminal" "V104" (check_body [ I.LitInt 1 ]);
  (* conditional whose fallthrough runs off the end *)
  expect_error "fallthrough past end" "V104" (check_body [ I.LitBool true; I.JmpZ 0; I.LitNull ])

let test_use_before_def () =
  (* the VM defines every local as null, so reading one before any store is
     well-formed bytecode: no diagnostic at all, for locals and params alike *)
  let diags = check_body ~n_params:0 ~n_locals:2 [ I.LoadLoc 1; I.Ret ] in
  Alcotest.(check (list string)) "read of never-stored local is clean" [] (codes diags);
  let ok = check_body ~n_params:1 ~n_locals:1 [ I.LoadLoc 0; I.Ret ] in
  Alcotest.(check (list string)) "param read is clean" [] (codes ok)

let test_local_out_of_range () =
  expect_error "local index past frame" "V106" (check_body ~n_locals:2 [ I.LoadLoc 5; I.Ret ]);
  expect_error "store past frame" "V106" (check_body ~n_locals:1 [ I.LitInt 1; I.StoreLoc 3; I.LitNull; I.Ret ])

let test_empty_body () = expect_error "empty body" "V107" (check_body [])

let test_params_exceed_locals () =
  expect_error "params > locals" "V108"
    (check_body ~n_params:3 ~n_locals:1 [ I.LitNull; I.Ret ])

let test_unreachable_block () =
  let diags = check_body [ I.LitNull; I.Ret; I.LitNull; I.Ret ] in
  expect_warning "code after Ret" "V109" diags;
  Alcotest.(check bool) "unreachable is only a warning" true (D.ok diags)

let test_ret_depth () =
  let diags = check_body [ I.LitInt 1; I.LitInt 2; I.Ret ] in
  expect_warning "two values at Ret" "V110" diags;
  Alcotest.(check bool) "deep Ret is only a warning" true (D.ok diags)

(* --- negative corpus: repo link resolution --- *)

let test_dangling_links () =
  expect_error "call of unknown fid" "V201" (check_body [ I.Call (9, 0); I.Ret ]);
  expect_error "new of unknown cid" "V202" (check_body [ I.New (3, 0); I.Ret ]);
  expect_error "unknown string id" "V203" (check_body [ I.LitStr 7; I.Ret ]);
  expect_error "unknown name id" "V204" (check_body [ I.LitNull; I.GetProp 9; I.Ret ]);
  expect_error "unknown static array id" "V205" (check_body [ I.LitArr 2; I.Ret ])

let test_call_arity () =
  let b = Hhbc.Repo.Builder.create () in
  let callee =
    Hhbc.Repo.Builder.add_func b (mk_func ~name:"g" ~n_params:2 [ I.LitNull; I.Ret ])
  in
  let caller = Hhbc.Repo.Builder.add_func b (mk_func ~name:"f" [ I.Call (callee, 0); I.Ret ]) in
  ignore
    (Hhbc.Repo.Builder.add_unit b
       { Hhbc.Unit_def.id = 0; path = "bad.mh"; funcs = [| callee; caller |]; classes = [||];
         main = Some caller; load_cost_bytes = 0 });
  let repo = Hhbc.Repo.Builder.finish b in
  expect_error "arity mismatch" "V208" (V.check_func repo (Hhbc.Repo.func repo caller))

let test_ctor_checks () =
  (* class with no constructor: New with args cannot deliver them *)
  let b = Hhbc.Repo.Builder.create () in
  let cid =
    Hhbc.Repo.Builder.add_class b
      { Hhbc.Class_def.id = 0; name = "C"; parent = None; props = [||]; methods = [||]; unit_id = 0 }
  in
  let f = Hhbc.Repo.Builder.add_func b (mk_func [ I.LitInt 1; I.New (cid, 1); I.Ret ]) in
  ignore
    (Hhbc.Repo.Builder.add_unit b
       { Hhbc.Unit_def.id = 0; path = "bad.mh"; funcs = [| f |]; classes = [| cid |];
         main = Some f; load_cost_bytes = 0 });
  let repo = Hhbc.Repo.Builder.finish b in
  expect_error "args without a constructor" "V206" (V.check_func repo (Hhbc.Repo.func repo f));
  (* constructor arity mismatch *)
  let b = Hhbc.Repo.Builder.create () in
  let ctor_nid = Hhbc.Repo.Builder.intern_name b "__construct" in
  let ctor =
    Hhbc.Repo.Builder.add_func b (mk_func ~name:"C::__construct" ~n_params:2 [ I.LitNull; I.Ret ])
  in
  let cid =
    Hhbc.Repo.Builder.add_class b
      { Hhbc.Class_def.id = 0; name = "C"; parent = None; props = [||];
        methods = [| (ctor_nid, ctor) |]; unit_id = 0 }
  in
  let f = Hhbc.Repo.Builder.add_func b (mk_func [ I.LitInt 1; I.New (cid, 1); I.Ret ]) in
  ignore
    (Hhbc.Repo.Builder.add_unit b
       { Hhbc.Unit_def.id = 0; path = "bad.mh"; funcs = [| ctor; f |]; classes = [| cid |];
         main = Some f; load_cost_bytes = 0 });
  let repo = Hhbc.Repo.Builder.finish b in
  expect_error "constructor arity" "V207" (V.check_func repo (Hhbc.Repo.func repo f))

let test_deterministic_and_sorted () =
  let repo = repo_of [ I.Pop; I.Call (9, 0); I.LitStr 7; I.LitNull; I.Ret; I.LitNull ] in
  let a = V.check_repo repo and b = V.check_repo repo in
  Alcotest.(check bool) "two runs identical" true (a = b);
  Alcotest.(check bool) "output is sorted" true (D.sort a = a);
  Alcotest.(check bool) "several distinct codes" true (List.length (codes a) >= 3)

let test_engine_refuses_bad_repo () =
  let repo = repo_of [ I.Pop; I.LitNull; I.Ret ] in
  let layouts = Mh_runtime.Class_layout.build repo ~reorder:false ~hotness:(fun _ _ -> 0) in
  match Interp.Engine.create repo (Mh_runtime.Heap.create repo layouts) with
  | _ -> Alcotest.fail "compile gate accepted an underflowing body"
  | exception Interp.Engine.Runtime_error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "gate names the diagnostic (got: %s)" msg)
      true
      (contains ~affix:"verification failed" msg && contains ~affix:"V102" msg)

(* The memoized verdict is [check_func]'s first error, asked once or many
   times, for a clean or a broken body; and the engine's gate refuses a
   broken body on every engine of its repo, not just the first. *)
let test_verdict_memo () =
  let first repo f =
    match D.errors (V.check_func repo f) with [] -> None | d :: _ -> Some (D.to_string d)
  in
  let memo repo f = Option.map D.to_string (V.first_error repo f) in
  let app = Workload.Codegen.generate Workload.App_spec.tiny in
  let broken = repo_of [ I.Pop; I.LitNull; I.Ret ] in
  List.iter
    (fun repo ->
      for _ = 1 to 2 do
        for fid = 0 to Hhbc.Repo.n_funcs repo - 1 do
          let f = Hhbc.Repo.func repo fid in
          Alcotest.(check (option string)) f.Hhbc.Func.name (first repo f) (memo repo f)
        done
      done)
    [ app.Workload.Codegen.repo; broken ];
  Alcotest.(check bool) "broken body" true (memo broken (Hhbc.Repo.func broken 0) <> None);
  let layouts = Mh_runtime.Class_layout.build broken ~reorder:false ~hotness:(fun _ _ -> 0) in
  for _ = 1 to 2 do
    match Interp.Engine.create broken (Mh_runtime.Heap.create broken layouts) with
    | _ -> Alcotest.fail "compile gate accepted an underflowing body"
    | exception Interp.Engine.Runtime_error msg ->
      Alcotest.(check bool) "names V102" true (contains ~affix:"V102" msg)
  done

(* --- package decode gap: v2 repo-shape header --- *)

let compile_example name src = Minihack.Compile.compile_source ~path:name src

let shapes_src =
  {|class P { prop $x = 1; method get() { return $this->x; } }
function work($n) {
  $p = new P();
  $acc = 0;
  for ($i = 0; $i < $n; $i = $i + 1) { $acc = $acc + $p->get(); }
  return $acc;
}
function main() { echo "v: " . work(25) . "\n"; return 0; }|}

let package_for repo =
  let options =
    { JS.Options.default with JS.Options.min_coverage_funcs = 1; min_coverage_entries = 1 }
  in
  let traffic n engine =
    for _ = 1 to n do
      ignore (Interp.Engine.run_main engine);
      Mh_runtime.Heap.reset_arena (Interp.Engine.heap engine)
    done
  in
  match
    JS.Seeder.run repo options ~profile_traffic:(traffic 20) ~optimized_traffic:(traffic 20)
      ~region:0 ~bucket:0 ~seeder_id:0 ()
  with
  | Ok outcome -> outcome
  | Error msg -> Alcotest.failf "seeder failed: %s" msg

(* Bump the [k]-th repo-shape varint of a serialized package, re-framing with
   a valid CRC, so only the per-field decode check can catch it. *)
let patch_shape_field bytes k =
  let payload = B.unframe ~magic:JS.Package.magic ~expected_version:JS.Package.version bytes in
  let r = B.Reader.of_string payload in
  let total = String.length payload in
  (* skip the 7 meta varints (region, bucket, seeder, funcs, entries,
     fingerprint, published_at) to land on the k-th shape field *)
  for _ = 1 to 7 + k do
    ignore (B.Reader.varint r)
  done;
  let start = total - B.Reader.remaining r in
  let v = B.Reader.varint r in
  let stop = total - B.Reader.remaining r in
  let w = B.Writer.create () in
  B.Writer.varint w (v + 1);
  B.frame ~magic:JS.Package.magic ~version:JS.Package.version
    (String.sub payload 0 start ^ B.Writer.contents w ^ String.sub payload stop (total - stop))

let test_shape_fields_checked () =
  let repo = compile_example "shapes.mh" shapes_src in
  let outcome = package_for repo in
  let bytes = outcome.JS.Seeder.bytes in
  (match JS.Package.of_bytes repo bytes with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "pristine package must decode: %s" msg);
  List.iteri
    (fun k field ->
      match JS.Package.of_bytes repo (patch_shape_field bytes k) with
      | Ok _ -> Alcotest.failf "corrupt %s accepted" field
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s mismatch reported (got: %s)" field msg)
          true
          (contains ~affix:field msg))
    [ "unit count"; "function count"; "class count"; "string count"; "static array count";
      "name count"
    ]

let test_old_version_rejected () =
  let repo = compile_example "shapes.mh" shapes_src in
  let outcome = package_for repo in
  let payload =
    B.unframe ~magic:JS.Package.magic ~expected_version:JS.Package.version outcome.JS.Seeder.bytes
  in
  let v1 = B.frame ~magic:JS.Package.magic ~version:1 payload in
  match JS.Package.of_bytes repo v1 with
  | Ok _ -> Alcotest.fail "version-1 frame accepted"
  | Error _ -> ()

let test_props_nid_checked () =
  (* a counter naming a valid class but a nonexistent property name id must
     die at decode, not alias another name at consumer time *)
  let repo = compile_example "shapes.mh" shapes_src in
  let counters = Jit_profile.Counters.create repo in
  Jit_profile.Counters.import_prop counters 0 (Hhbc.Repo.n_names repo + 5) 1;
  let w = B.Writer.create () in
  Jit_profile.Counters.serialize counters w;
  match
    Jit_profile.Counters.deserialize repo (B.Reader.of_string (B.Writer.contents w))
  with
  | _ -> Alcotest.fail "out-of-range property name id accepted"
  | exception B.Corrupt msg ->
    Alcotest.(check bool) "names the field" true (contains ~affix:"name id" msg)

(* Import and recording stay total on ids beyond the repo, whichever table
   they land in; the forged counters serialize, and decode names what is
   wrong. *)
let test_counters_total_on_forged_ids () =
  let repo = compile_example "shapes.mh" shapes_src in
  let n_funcs = Hhbc.Repo.n_funcs repo in
  let n_blocks = Array.length (F.basic_blocks (Hhbc.Repo.func repo 0)) in
  let body_len = Array.length (Hhbc.Repo.func repo 0).F.body in
  let module C = Jit_profile.Counters in
  (* one call: the site's target row and the call-graph row *)
  let call c ~caller ~site ~callee =
    C.import_call c ~caller ~site ~callee 1;
    C.import_cg c ~caller ~callee 1
  in
  List.iter
    (fun (what, affix, forge) ->
      let counters = C.create repo in
      forge counters;
      let w = B.Writer.create () in
      C.serialize counters w;
      match C.deserialize repo (B.Reader.of_string (B.Writer.contents w)) with
      | _ -> Alcotest.failf "%s accepted" what
      | exception B.Corrupt msg ->
        Alcotest.(check bool) (what ^ " named") true (contains ~affix msg))
    [ ("arc source", "arc endpoint", fun c -> C.import_arc c 0 ~src:(n_blocks + 3) ~dst:0 1);
      ("arc destination", "arc endpoint", fun c -> C.import_arc c 0 ~src:0 ~dst:(n_blocks + 3) 1);
      ("call site", "call site", fun c -> call c ~caller:0 ~site:(body_len + 3) ~callee:0);
      ("callee", "function id", fun c -> call c ~caller:0 ~site:0 ~callee:(n_funcs + 3));
      ("caller", "function id", fun c -> call c ~caller:(n_funcs + 3) ~site:0 ~callee:0);
      ("class", "class id", fun c -> C.import_prop c (Hhbc.Repo.n_classes repo + 3) 0 1);
      ("unit", "unit id", fun c -> C.record_unit_load c (Hhbc.Repo.n_units repo + 3))
    ]

(* --- profile-consistency pass (P3xx) --- *)

let find_fid_with_blocks repo ~min_blocks =
  let rec go fid =
    if fid >= Hhbc.Repo.n_funcs repo then Alcotest.fail "no multi-block function"
    else if Array.length (F.basic_blocks (Hhbc.Repo.func repo fid)) >= min_blocks then fid
    else go (fid + 1)
  in
  go 0

let test_package_check_codes () =
  let repo = compile_example "shapes.mh" shapes_src in
  let outcome = package_for repo in
  let pkg = outcome.JS.Seeder.package in
  Alcotest.(check bool) "seeder package is consistent" true
    (D.ok (JS.Package_check.check repo pkg));
  (* P303: an in-range arc that is not a CFG edge (Ret blocks have no
     successors, so a self-loop on the last block is never an edge) *)
  let fid = find_fid_with_blocks repo ~min_blocks:2 in
  let last = Array.length (F.basic_blocks (Hhbc.Repo.func repo fid)) - 1 in
  let bad = { pkg with JS.Package.counters = Jit_profile.Counters.copy pkg.JS.Package.counters } in
  Jit_profile.Counters.import_arc bad.JS.Package.counters fid ~src:last ~dst:last 1;
  expect_error "phantom arc" "P303" (JS.Package_check.check repo bad);
  (* P306/P307: malformed placement and preload lists *)
  let dup = { pkg with JS.Package.func_order = [| 0; 0 |] } in
  expect_error "duplicate placement" "P306" (JS.Package_check.check repo dup);
  let oob = { pkg with JS.Package.func_order = [| Hhbc.Repo.n_funcs repo |] } in
  expect_error "placement out of range" "P306" (JS.Package_check.check repo oob);
  let dup_u = { pkg with JS.Package.preload_units = [| 0; 0 |] } in
  expect_error "duplicate preload" "P307" (JS.Package_check.check repo dup_u)

(* Acceptance: a package whose profiled arc is not a real block transition is
   rejected at consumer boot by the verify stage — telemetry shows the
   Validation_failed events and the verify.* counter — and never executes. *)
let test_consumer_rejects_inconsistent_package () =
  let repo = compile_example "shapes.mh" shapes_src in
  let outcome = package_for repo in
  let pkg = outcome.JS.Seeder.package in
  let fid = find_fid_with_blocks repo ~min_blocks:2 in
  let last = Array.length (F.basic_blocks (Hhbc.Repo.func repo fid)) - 1 in
  let bad = { pkg with JS.Package.counters = Jit_profile.Counters.copy pkg.JS.Package.counters } in
  Jit_profile.Counters.import_arc bad.JS.Package.counters fid ~src:last ~dst:last 1;
  let bytes = JS.Package.to_bytes bad in
  (match JS.Package.of_bytes repo bytes with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "bad-arc package must pass decode (the gap): %s" msg);
  let store = JS.Store.create () in
  JS.Store.publish store ~region:0 ~bucket:0 bytes bad.JS.Package.meta;
  let tel = Js_telemetry.create () in
  let options =
    { JS.Options.default with JS.Options.min_coverage_funcs = 1; min_coverage_entries = 1 }
  in
  let fallback_traffic engine = ignore (Interp.Engine.run_main engine) in
  (match
     JS.Consumer.boot_dist ~telemetry:tel repo options (JS.Dist_store.create store)
       (Js_util.Rng.create 1) ~region:0
       ~bucket:0 ~fallback_traffic ()
   with
  | JS.Consumer.Fell_back (vm, _) ->
    Alcotest.(check bool) "fell back without a package" true (vm.JS.Consumer.package = None)
  | JS.Consumer.Jump_started _ -> Alcotest.fail "inconsistent package was jump-started");
  Alcotest.(check int) "every attempt died in verify" options.JS.Options.max_boot_attempts
    (Js_telemetry.counter tel "consumer.verify_failures");
  Alcotest.(check int) "verify.package_rejects pinned" options.JS.Options.max_boot_attempts
    (Js_telemetry.counter tel "verify.package_rejects");
  Alcotest.(check int) "nothing reached compile" 0
    (Js_telemetry.counter tel "consumer.compile_failures");
  let verify_events =
    List.filter
      (fun (_, e) ->
        match e with
        | Js_telemetry.Validation_failed { stage; _ } -> stage = "consumer.verify"
        | _ -> false)
      (Js_telemetry.events tel)
  in
  Alcotest.(check int) "Validation_failed events recorded" options.JS.Options.max_boot_attempts
    (List.length verify_events)

(* Seeder self-validation catches the same damage before publication. *)
let test_seeder_rejects_inconsistent_rebuild () =
  let repo = compile_example "shapes.mh" shapes_src in
  let outcome = package_for repo in
  let pkg = outcome.JS.Seeder.package in
  let fid = find_fid_with_blocks repo ~min_blocks:2 in
  let last = Array.length (F.basic_blocks (Hhbc.Repo.func repo fid)) - 1 in
  let bad = { pkg with JS.Package.counters = Jit_profile.Counters.copy pkg.JS.Package.counters } in
  Jit_profile.Counters.import_arc bad.JS.Package.counters fid ~src:last ~dst:last 1;
  match JS.Package_check.result repo bad with
  | Ok () -> Alcotest.fail "consistency pass missed the phantom arc"
  | Error msg ->
    Alcotest.(check bool) "names the code" true (contains ~affix:"P303" msg)

(* Semantic store corruption must be caught by decode or the verify stage —
   never executed, never a crash. *)
let test_semantic_corruption_handled () =
  let repo = compile_example "shapes.mh" shapes_src in
  let outcome = package_for repo in
  let options =
    { JS.Options.default with JS.Options.min_coverage_funcs = 1; min_coverage_entries = 1 }
  in
  let fallback_traffic engine = ignore (Interp.Engine.run_main engine) in
  for seed = 1 to 20 do
    let store = JS.Store.create () in
    JS.Store.publish store ~region:0 ~bucket:0 outcome.JS.Seeder.bytes
      outcome.JS.Seeder.package.JS.Package.meta;
    let rng = Js_util.Rng.create seed in
    Alcotest.(check bool) "corrupted one package" true
      (JS.Store.corrupt_one ~semantic:true store rng ~region:0 ~bucket:0);
    match
      JS.Consumer.boot_dist repo options (JS.Dist_store.create store) rng ~region:0 ~bucket:0
        ~fallback_traffic ()
    with
    | JS.Consumer.Fell_back _ | JS.Consumer.Jump_started _ -> ()
  done

(* --- dataflow framework: per-function facts --- *)

module DF = Js_analysis.Dataflow

let summary_of ?n_params ?n_locals body =
  let repo = repo_of ?n_params ?n_locals body in
  DF.analyze repo (Hhbc.Repo.func repo 0)

(* [branch_edges prefix] analyzes [prefix; JmpZ; LitInt 1; Ret; LitInt 2;
   Ret] and says which edges out of the entry block survive pruning, as
   (fall-through b0->b1, taken when the condition is truthy; jump b0->b2,
   taken when it is falsy).  These are the facts P320/P321 read. *)
let branch_edges prefix =
  let k = List.length prefix in
  let s = summary_of (prefix @ [ I.JmpZ (k + 3); I.LitInt 1; I.Ret; I.LitInt 2; I.Ret ]) in
  Alcotest.(check bool) "converged" true s.DF.converged;
  (DF.feasible_edge s ~src:0 ~dst:1, DF.feasible_edge s ~src:0 ~dst:2)

let edges = Alcotest.(pair bool bool)

let test_dataflow_const_fold () =
  (* 2 + 3 folds to 5 and the fact propagates through the store/load: the
     comparison with the literal 5 folds to true and with 6 to false, so
     exactly one edge of the branch on it survives *)
  let folded = [ I.LitInt 2; I.LitInt 3; I.BinOp I.Add; I.StoreLoc 0; I.LoadLoc 0 ] in
  let eq n = branch_edges (folded @ [ I.LitInt n; I.BinOp I.Eq ]) in
  Alcotest.check edges "5 = 5 keeps the fall-through only" (true, false) (eq 5);
  Alcotest.check edges "5 = 6 keeps the jump only" (false, true) (eq 6)

(* Folding runs the interpreter's own operators.  For every operator and
   constant operands, a branch on the result keeps exactly the edge
   {!Hhbc.Value.truthy} of {!Hhbc.Ops}'s result picks, and both edges when
   the operator raises (no fold) or the result is not a scalar.  Where the
   result is an int, float, bool or null, comparing it with its own literal
   keeps only the equal edge, which pins the folded value itself. *)
let test_dataflow_folds_shared_operators () =
  let module Val = Hhbc.Value in
  let values =
    [ Val.Int 0; Val.Int 1; Val.Int (-3); Val.Int 70; Val.Float 0.; Val.Float 2.5;
      Val.Float (-1.5); Val.Bool true; Val.Bool false; Val.Null ]
  in
  let lit = function
    | Val.Int n -> Some (I.LitInt n)
    | Val.Float f -> Some (I.LitFloat f)
    | Val.Bool b -> Some (I.LitBool b)
    | Val.Null -> Some I.LitNull
    | Val.Str _ | Val.Vec _ | Val.Dict _ | Val.Obj _ -> None
  in
  let lit_of v = Option.get (lit v) in
  let check what prefix op =
    let got = branch_edges prefix in
    let expected, pinned =
      match op () with
      | (Val.Null | Val.Bool _ | Val.Int _ | Val.Float _ | Val.Str _) as v ->
        let t = Val.truthy v in
        ((t, not t), Option.map (fun l -> (v, l)) (lit v))
      | Val.Vec _ | Val.Dict _ | Val.Obj _ -> ((true, true), None)
      | exception Hhbc.Ops.Runtime_error _ -> ((true, true), None)
    in
    Alcotest.check edges (what ^ ": branch edges") expected got;
    Option.iter
      (fun (v, l) ->
        Alcotest.check edges
          (Printf.sprintf "%s folds to %s" what (Val.to_string v))
          (true, false)
          (branch_edges (prefix @ [ l; I.BinOp I.Eq ])))
      pinned
  in
  let name ins = Format.asprintf "%a" I.pp ins in
  let binops =
    I.[ Add; Sub; Mul; Div; Mod; Concat; Lt; Le; Gt; Ge; Eq; Ne; BitAnd; BitOr; BitXor; Shl; Shr ]
  in
  List.iter
    (fun op ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              check
                (Printf.sprintf "%s %s %s" (name (lit_of a)) (name (I.BinOp op)) (name (lit_of b)))
                [ lit_of a; lit_of b; I.BinOp op ]
                (fun () -> Hhbc.Ops.binop op a b))
            values)
        values)
    binops;
  List.iter
    (fun a ->
      List.iter
        (fun op ->
          check
            (Printf.sprintf "%s %s" (name (I.UnOp op)) (name (lit_of a)))
            [ lit_of a; I.UnOp op ]
            (fun () -> Hhbc.Ops.unop op a))
        I.[ Neg; Not; BitNot ];
      List.iter
        (fun tag ->
          check
            (Printf.sprintf "%s %s" (name (I.Cast tag)) (name (lit_of a)))
            [ lit_of a; I.Cast tag ]
            (fun () -> Hhbc.Ops.cast tag a))
        Val.[ TNull; TBool; TInt; TFloat; TStr; TVec; TDict; TObj ])
    values

let test_dataflow_feasible_edges () =
  (* blocks: b0=[0..1] b1=[2..3] b2=[4..5]; the branch condition is the
     constant true, so the taken edge b0->b2 is statically infeasible *)
  let s = summary_of [ I.LitBool true; I.JmpZ 4; I.LitInt 1; I.Ret; I.LitInt 2; I.Ret ] in
  Alcotest.(check bool) "fallthrough edge feasible" true (DF.feasible_edge s ~src:0 ~dst:1);
  Alcotest.(check bool) "taken edge infeasible" false (DF.feasible_edge s ~src:0 ~dst:2);
  Alcotest.(check bool) "non-CFG edge infeasible" false (DF.feasible_edge s ~src:1 ~dst:2);
  Alcotest.(check bool) "dead branch target unreachable" false s.DF.reach.(2);
  Alcotest.(check bool) "live branch target reachable" true s.DF.reach.(1)

(* A verifier error or a solve that hits its bound makes [Verify.facts]
   [None], which silently turns off P320/P321 and salvage pruning for that
   function; every function the code generator emits, base or churned,
   must get facts. *)
let test_facts_on_generated_apps () =
  let module A = Workload.App_spec in
  let check what (app : Workload.Codegen.app) =
    let repo = app.Workload.Codegen.repo in
    for fid = 0 to Hhbc.Repo.n_funcs repo - 1 do
      let f = Hhbc.Repo.func repo fid in
      if V.facts repo f = None then Alcotest.failf "%s: no facts for %s (f%d)" what f.F.name fid
    done
  in
  check "tiny" (Workload.Codegen.generate A.tiny);
  check "default" (Workload.Codegen.generate A.default);
  List.iter
    (fun rate ->
      for seed = 1 to 3 do
        check
          (Printf.sprintf "tiny churned at %.1f, seed %d" rate seed)
          (fst (Workload.Churn.generate { Workload.Churn.seed; rate } A.tiny))
      done)
    [ 0.2; 0.4 ]

let test_solver_convergence_bound () =
  (* a loop with a type-unstable local still converges within the bound *)
  let body =
    [ I.LitInt 0; I.StoreLoc 0; I.LoadLoc 0; I.JmpZ 8; I.LitFloat 1.5; I.StoreLoc 0; I.Jmp 2;
      I.Nop; I.LitNull; I.Ret ]
  in
  let s = summary_of ~n_locals:1 body in
  let bound =
    DF.typestate_bound
      ~n_blocks:(Array.length s.DF.blocks)
      ~body_len:(List.length body) ~n_locals:1
  in
  Alcotest.(check bool) "converged" true s.DF.converged;
  Alcotest.(check bool)
    (Printf.sprintf "iterations %d within bound %d" s.DF.iterations bound)
    true (s.DF.iterations <= bound)

(* --- dataflow feasibility gates on profiles (P320/P321) --- *)

(* like [shapes_src] plus a function with a constant branch: the CFG edge
   into the `0 - $n` arm exists but is statically infeasible, and its blocks
   are dataflow-dead *)
let gate_src =
  {|class P { prop $x = 1; method get() { return $this->x; } }
function gate($n) { if (1 < 2) { return $n; } return 0 - $n; }
function work($n) {
  $p = new P();
  $acc = 0;
  for ($i = 0; $i < $n; $i = $i + 1) { $acc = $acc + gate($p->get()); }
  return $acc;
}
function main() { echo "v: " . work(25) . "\n"; return 0; }|}

let find_func repo name =
  let rec go fid =
    if fid >= Hhbc.Repo.n_funcs repo then Alcotest.failf "no function %s" name
    else if (Hhbc.Repo.func repo fid).F.name = name then fid
    else go (fid + 1)
  in
  go 0

(* the CFG edge of [fid] that feasible-edge pruning removes *)
let infeasible_edge repo fid =
  let f = Hhbc.Repo.func repo fid in
  let s = DF.analyze repo f in
  let found = ref None in
  Array.iteri
    (fun src (b : F.block) ->
      List.iter
        (fun dst ->
          if s.DF.reach.(src) && not (DF.feasible_edge s ~src ~dst) && !found = None then
            found := Some (src, dst))
        b.F.succs)
    s.DF.blocks;
  match !found with
  | Some e -> e
  | None -> Alcotest.failf "function %d has no infeasible CFG edge" fid

let unreachable_block repo fid =
  let s = DF.analyze repo (Hhbc.Repo.func repo fid) in
  let rec go b =
    if b >= Array.length s.DF.reach then Alcotest.failf "function %d has no dead block" fid
    else if not s.DF.reach.(b) then b
    else go (b + 1)
  in
  go 0

let test_feasibility_gate_codes () =
  let repo = compile_example "gate.mh" gate_src in
  let outcome = package_for repo in
  let pkg = outcome.JS.Seeder.package in
  (* the honest profile passes both gates (soundness: real executions only
     ever take feasible edges) *)
  Alcotest.(check bool) "honest package is consistent" true
    (D.ok (JS.Package_check.check repo pkg));
  let fid = find_func repo "gate" in
  let src, dst = infeasible_edge repo fid in
  let bad = { pkg with JS.Package.counters = Jit_profile.Counters.copy pkg.JS.Package.counters } in
  Jit_profile.Counters.import_arc bad.JS.Package.counters fid ~src ~dst 1;
  let diags = JS.Package_check.check repo bad in
  expect_error "arc on infeasible edge" "P320" diags;
  Alcotest.(check bool) "P320 names the infeasibility" true
    (List.exists
       (fun d -> d.D.code = "P320" && contains ~affix:"statically infeasible" d.D.message)
       diags);
  let dead = unreachable_block repo fid in
  let bad2 = { pkg with JS.Package.counters = Jit_profile.Counters.copy pkg.JS.Package.counters } in
  let counters = bad2.JS.Package.counters in
  let blocks = Option.get (Jit_profile.Counters.block_counts counters fid) in
  blocks.(dead) <- blocks.(dead) + 1;
  Jit_profile.Counters.import_block_counts counters fid blocks;
  expect_error "count in dataflow-dead block" "P321" (JS.Package_check.check repo bad2)

(* Acceptance: a profile claiming an execution the analysis proves impossible
   is rejected at consumer boot with the stable P320 code — pinned telemetry
   counters and events, and the consumer falls back to profiling from
   scratch. *)
let test_consumer_rejects_infeasible_arc () =
  let repo = compile_example "gate.mh" gate_src in
  let outcome = package_for repo in
  let pkg = outcome.JS.Seeder.package in
  let fid = find_func repo "gate" in
  let src, dst = infeasible_edge repo fid in
  let bad = { pkg with JS.Package.counters = Jit_profile.Counters.copy pkg.JS.Package.counters } in
  Jit_profile.Counters.import_arc bad.JS.Package.counters fid ~src ~dst 1;
  (* the stable code reaches the seeder/consumer result message *)
  (match JS.Package_check.result repo bad with
  | Ok () -> Alcotest.fail "consistency pass missed the infeasible arc"
  | Error msg -> Alcotest.(check bool) "result names P320" true (contains ~affix:"P320" msg));
  let bytes = JS.Package.to_bytes bad in
  (match JS.Package.of_bytes repo bytes with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "infeasible-arc package must pass decode (the gap): %s" msg);
  let store = JS.Store.create () in
  JS.Store.publish store ~region:0 ~bucket:0 bytes bad.JS.Package.meta;
  let tel = Js_telemetry.create () in
  let options =
    { JS.Options.default with JS.Options.min_coverage_funcs = 1; min_coverage_entries = 1 }
  in
  let fallback_traffic engine = ignore (Interp.Engine.run_main engine) in
  (match
     JS.Consumer.boot_dist ~telemetry:tel repo options (JS.Dist_store.create store)
       (Js_util.Rng.create 1) ~region:0
       ~bucket:0 ~fallback_traffic ()
   with
  | JS.Consumer.Fell_back (vm, _) ->
    Alcotest.(check bool) "fell back without a package" true (vm.JS.Consumer.package = None)
  | JS.Consumer.Jump_started _ -> Alcotest.fail "infeasible-arc package was jump-started");
  Alcotest.(check int) "every attempt died in verify" options.JS.Options.max_boot_attempts
    (Js_telemetry.counter tel "consumer.verify_failures");
  Alcotest.(check int) "verify.package_rejects pinned" options.JS.Options.max_boot_attempts
    (Js_telemetry.counter tel "verify.package_rejects");
  Alcotest.(check int) "nothing reached compile" 0
    (Js_telemetry.counter tel "consumer.compile_failures");
  let verify_events =
    List.filter
      (fun (_, e) ->
        match e with
        | Js_telemetry.Validation_failed { stage; _ } -> stage = "consumer.verify"
        | _ -> false)
      (Js_telemetry.events tel)
  in
  Alcotest.(check int) "Validation_failed events recorded" options.JS.Options.max_boot_attempts
    (List.length verify_events)

let () =
  Alcotest.run "analysis"
    [ ( "negative corpus",
        [ Alcotest.test_case "jump out of bounds" `Quick test_jump_oob;
          Alcotest.test_case "stack underflow" `Quick test_stack_underflow;
          Alcotest.test_case "join depth mismatch" `Quick test_join_depth_mismatch;
          Alcotest.test_case "fall off the end" `Quick test_fall_off_end;
          Alcotest.test_case "use before def" `Quick test_use_before_def;
          Alcotest.test_case "local out of range" `Quick test_local_out_of_range;
          Alcotest.test_case "empty body" `Quick test_empty_body;
          Alcotest.test_case "params exceed locals" `Quick test_params_exceed_locals;
          Alcotest.test_case "unreachable block" `Quick test_unreachable_block;
          Alcotest.test_case "return depth" `Quick test_ret_depth;
          Alcotest.test_case "dangling repo links" `Quick test_dangling_links;
          Alcotest.test_case "call arity" `Quick test_call_arity;
          Alcotest.test_case "constructor checks" `Quick test_ctor_checks;
          Alcotest.test_case "deterministic sorted output" `Quick test_deterministic_and_sorted;
          Alcotest.test_case "engine refuses bad repo" `Quick test_engine_refuses_bad_repo;
          Alcotest.test_case "verdict memo" `Quick test_verdict_memo
        ] );
      ( "package decode",
        [ Alcotest.test_case "repo shape fields checked" `Quick test_shape_fields_checked;
          Alcotest.test_case "old version rejected" `Quick test_old_version_rejected;
          Alcotest.test_case "prop name id checked" `Quick test_props_nid_checked;
          Alcotest.test_case "forged counter ids" `Quick test_counters_total_on_forged_ids
        ] );
      ( "profile consistency",
        [ Alcotest.test_case "package check codes" `Quick test_package_check_codes;
          Alcotest.test_case "consumer rejects inconsistent package" `Quick
            test_consumer_rejects_inconsistent_package;
          Alcotest.test_case "seeder rejects inconsistent rebuild" `Quick
            test_seeder_rejects_inconsistent_rebuild;
          Alcotest.test_case "semantic corruption handled" `Quick test_semantic_corruption_handled
        ] );
      ( "dataflow",
        [ Alcotest.test_case "constant folding facts" `Quick test_dataflow_const_fold;
          Alcotest.test_case "folds with the shared operators" `Quick
            test_dataflow_folds_shared_operators;
          Alcotest.test_case "feasible edges" `Quick test_dataflow_feasible_edges;
          Alcotest.test_case "facts on every generated function" `Quick
            test_facts_on_generated_apps;
          Alcotest.test_case "solver convergence bound" `Quick test_solver_convergence_bound
        ] );
      ( "feasibility gates",
        [ Alcotest.test_case "P320/P321 codes pinned" `Quick test_feasibility_gate_codes;
          Alcotest.test_case "consumer rejects infeasible arc" `Quick
            test_consumer_rejects_infeasible_arc
        ] )
    ]
