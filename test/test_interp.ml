(* Interpreter semantics and probe behaviour. *)

module V = Hhbc.Value

let setup src =
  let repo = Minihack.Compile.compile_source ~path:"t.mh" src in
  let layouts = Mh_runtime.Class_layout.build repo ~reorder:false ~hotness:(fun _ _ -> 0) in
  let heap = Mh_runtime.Heap.create repo layouts in
  (repo, heap)

let run ?probes ?fuel src =
  let repo, heap = setup src in
  let engine = Interp.Engine.create ?probes ?fuel repo heap in
  let result = Interp.Engine.run_main engine in
  (engine, result)

let eval expr = snd (run (Printf.sprintf "function main() { return %s; }" expr))

let expect_runtime_error src =
  match run src with
  | exception Interp.Engine.Runtime_error _ -> ()
  | _ -> Alcotest.failf "expected runtime error for %s" src

(* --- arithmetic and coercions --- *)

let test_int_arith () =
  Alcotest.(check bool) "add" true (eval "2 + 3" = V.Int 5);
  Alcotest.(check bool) "int division truncates" true (eval "7 / 2" = V.Int 3);
  Alcotest.(check bool) "mod" true (eval "7 % 3" = V.Int 1);
  Alcotest.(check bool) "mixed promotes to float" true (eval "1 + 2.5" = V.Float 3.5)

let test_bit_ops () =
  Alcotest.(check bool) "and" true (eval "12 & 10" = V.Int 8);
  Alcotest.(check bool) "or" true (eval "12 | 10" = V.Int 14);
  Alcotest.(check bool) "xor" true (eval "12 ^ 10" = V.Int 6);
  Alcotest.(check bool) "shl" true (eval "1 << 4" = V.Int 16);
  Alcotest.(check bool) "shr" true (eval "-8 >> 1" = V.Int (-4))

let test_arith_errors () =
  expect_runtime_error "function main() { return 1 / 0; }";
  expect_runtime_error "function main() { return 1 % 0; }";
  expect_runtime_error {|function main() { return vec[] + 1; }|};
  expect_runtime_error {|function main() { return "a" & 1; }|}

let test_concat_coercion () =
  Alcotest.(check bool) "int concat" true (eval {|"n=" . 5|} = V.Str "n=5");
  Alcotest.(check bool) "null concat" true (eval {|"x" . null|} = V.Str "x")

let test_comparisons () =
  Alcotest.(check bool) "lt" true (eval "1 < 2" = V.Bool true);
  Alcotest.(check bool) "cross-type numeric" true (eval "1.5 >= 1" = V.Bool true);
  Alcotest.(check bool) "string compare" true (eval {|"abc" < "abd"|} = V.Bool true);
  Alcotest.(check bool) "loose eq" true (eval "2 == 2.0" = V.Bool true)

let test_casts () =
  Alcotest.(check bool) "str->int" true (eval {|int("42")|} = V.Int 42);
  Alcotest.(check bool) "bad str->int is 0" true (eval {|int("nope")|} = V.Int 0);
  Alcotest.(check bool) "float cast" true (eval {|float("2.5")|} = V.Float 2.5);
  Alcotest.(check bool) "bool cast" true (eval {|boolval("")|} = V.Bool false);
  Alcotest.(check bool) "str cast" true (eval "str(12)" = V.Str "12")

(* --- containers --- *)

let test_vec_semantics () =
  Alcotest.(check bool) "index" true (eval "vec[10, 20][1]" = V.Int 20);
  Alcotest.(check bool) "len of str" true (eval {|len("abcd")|} = V.Int 4);
  expect_runtime_error "function main() { return vec[1][5]; }";
  expect_runtime_error "function main() { return vec[1][0 - 1]; }";
  (* writing one past the end appends *)
  Alcotest.(check bool) "append via write at len" true
    (snd (run "function main() { $v = vec[1]; $v[1] = 9; return $v[1]; }") = V.Int 9);
  expect_runtime_error "function main() { $v = vec[1]; $v[3] = 9; }"

let test_vec_reference_semantics () =
  Alcotest.(check bool) "aliasing visible" true
    (snd (run "function mutate($v) { $v[0] = 99; return 0; }\nfunction main() { $v = vec[1]; mutate($v); return $v[0]; }")
    = V.Int 99)

let test_dict_semantics () =
  Alcotest.(check bool) "get" true (eval {|dict["k" => 3]["k"]|} = V.Int 3);
  Alcotest.(check bool) "missing key is null" true (eval {|dict["a" => 1]["b"]|} = V.Null);
  Alcotest.(check bool) "int keys coerce to string" true
    (snd (run {|function main() { $d = dict[]; $d[7] = "x"; return $d["7"]; }|}) = V.Str "x")

let test_string_index () =
  Alcotest.(check bool) "char" true (eval {|"hello"[1]|} = V.Str "e")

(* --- objects --- *)

let test_object_defaults_and_props () =
  Alcotest.(check bool) "default" true
    (snd (run "class C { prop $a = 5; } function main() { return (new C())->a; }") = V.Int 5);
  expect_runtime_error "class C { } function main() { return (new C())->nope; }"

let test_method_dispatch_depth () =
  (* three-level hierarchy; middle overrides *)
  Alcotest.(check bool) "dispatch walks chain" true
    (snd
       (run
          {|class A { method f() { return 1; } method g() { return 10; } }
            class B extends A { method f() { return 2; } }
            class C extends B { }
            function main() { $c = new C(); return $c->f() * 100 + $c->g(); }|})
    = V.Int 210)

let test_undefined_method () =
  expect_runtime_error "class C { } function main() { $c = new C(); return $c->nope(); }"

let test_method_on_non_object () = expect_runtime_error "function main() { return (5)->m(); }"

let test_instanceof () =
  Alcotest.(check bool) "subclass" true
    (snd
       (run
          {|class A { } class B extends A { }
            function main() { return (new B()) instanceof A; }|})
    = V.Bool true);
  Alcotest.(check bool) "non-object false" true
    (snd (run "class A { } function main() { return 3 instanceof A; }") = V.Bool false)

(* --- limits --- *)

let test_stack_overflow () =
  expect_runtime_error "function f() { return f(); } function main() { return f(); }"

let test_fuel_exhaustion () =
  let repo, heap = setup "function main() { while (true) { } }" in
  let engine = Interp.Engine.create ~fuel:10_000 repo heap in
  match Interp.Engine.run_main engine with
  | exception Interp.Engine.Runtime_error msg ->
    let contains s sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "mentions fuel" true (contains msg "fuel")
  | _ -> Alcotest.fail "expected fuel exhaustion"

(* --- accounting and probes --- *)

let test_steps_accounting () =
  let engine, _ = run "function main() { $x = 1 + 2; return $x; }" in
  Alcotest.(check bool) "steps counted" true (Interp.Engine.steps engine > 0)

let test_block_and_arc_probes () =
  (* a loop with 3 iterations: the body block fires 3 times, the self/back
     arc twice or thrice depending on shape; verify totals via counters *)
  let src =
    {|function main() { $s = 0; for ($i = 0; $i < 3; $i = $i + 1) { $s = $s + $i; } return $s; }|}
  in
  let repo, heap = setup src in
  let counters = Jit_profile.Counters.create repo in
  let engine = Interp.Engine.create ~probes:(Jit_profile.Collector.probes counters) repo heap in
  let result = Interp.Engine.run_main engine in
  Alcotest.(check bool) "result" true (result = V.Int 3);
  let main_fid = (Option.get (Hhbc.Repo.find_func_by_name repo "main")).Hhbc.Func.id in
  (match Jit_profile.Counters.block_counts counters main_fid with
  | None -> Alcotest.fail "no block counts"
  | Some counts ->
    Alcotest.(check bool) "some block ran 3 times" true (Array.exists (fun c -> c = 3) counts);
    Alcotest.(check bool) "entry ran once" true (counts.(0) = 1));
  Alcotest.(check int) "one entry" 1 (Jit_profile.Counters.func_entries counters main_fid);
  Alcotest.(check bool) "arcs recorded" true
    (Jit_profile.Counters.arc_counts counters main_fid <> [])

let test_call_probes () =
  let src =
    {|class A { method m() { return 1; } }
      function callee() { return 2; }
      function main() { $a = new A(); return callee() + $a->m(); }|}
  in
  let repo, heap = setup src in
  let counters = Jit_profile.Counters.create repo in
  let engine = Interp.Engine.create ~probes:(Jit_profile.Collector.probes counters) repo heap in
  ignore (Interp.Engine.run_main engine);
  let cg = Jit_profile.Counters.call_graph counters in
  (* main calls: A::__construct? no ctor; callee; A::m -> 2 arcs *)
  Alcotest.(check int) "two call-graph arcs" 2 (List.length cg)

let test_func_exit_probe_balances () =
  let entries = ref 0 and exits = ref 0 in
  let probes =
    Interp.Probes.Events
      {
        Interp.Probes.no_events with
        Interp.Probes.on_func_entry = (fun _ -> incr entries);
        on_func_exit = (fun _ -> incr exits);
      }
  in
  let _, result =
    run ~probes
      {|function f($n) { if ($n == 0) { return 0; } return f($n - 1); }
        function main() { return f(5); }|}
  in
  Alcotest.(check bool) "result" true (result = V.Int 0);
  Alcotest.(check int) "balanced" !entries !exits;
  Alcotest.(check int) "main + 6 f frames" 7 !entries

let test_prop_probe_addresses () =
  let addrs = ref [] in
  let probes =
    Interp.Probes.Events
      {
        Interp.Probes.no_events with
        Interp.Probes.on_prop_access = (fun _ _ ~addr ~write -> addrs := (addr, write) :: !addrs);
      }
  in
  ignore
    (run ~probes
       {|class C { prop $a = 1; prop $b = 2; }
         function main() { $c = new C(); $c->b = 9; return $c->a + $c->b; }|});
  Alcotest.(check int) "three accesses" 3 (List.length !addrs);
  Alcotest.(check bool) "one write" true (List.exists snd !addrs);
  (* a and b must live at distinct addresses *)
  let distinct = List.sort_uniq compare (List.map fst !addrs) in
  Alcotest.(check int) "two distinct slots" 2 (List.length distinct)

(* --- inline caches --- *)

(* Two classes flowing through the SAME CallMethod pc: the first receiver
   installs the monomorphic entry, the second forces the polymorphic table,
   and from then on A hits mono while B hits poly.  4 iterations of
   (go($a); go($b)) → 2 misses, 3 mono hits, 3 poly hits. *)
let test_polymorphic_call_site () =
  let engine, result =
    run
      {|class A { method m() { return 1; } }
        class B { method m() { return 2; } }
        function go($o) { return $o->m(); }
        function main() {
          $a = new A(); $b = new B(); $s = 0;
          for ($i = 0; $i < 4; $i = $i + 1) { $s = $s + go($a) + go($b); }
          return $s;
        }|}
  in
  Alcotest.(check bool) "dispatch correct under sharing" true (result = V.Int 12);
  let s = Interp.Engine.cache_stats engine in
  Alcotest.(check int) "meth misses" 2 s.Interp.Engine.meth_miss;
  Alcotest.(check int) "meth mono hits" 3 s.Interp.Engine.meth_hit_mono;
  Alcotest.(check int) "meth poly hits" 3 s.Interp.Engine.meth_hit_poly

let test_monomorphic_call_site () =
  let engine, result =
    run
      {|class A { method m() { return 7; } }
        function main() {
          $a = new A(); $s = 0;
          for ($i = 0; $i < 5; $i = $i + 1) { $s = $s + $a->m(); }
          return $s;
        }|}
  in
  Alcotest.(check bool) "result" true (result = V.Int 35);
  let s = Interp.Engine.cache_stats engine in
  Alcotest.(check int) "one miss installs the site" 1 s.Interp.Engine.meth_miss;
  Alcotest.(check int) "rest are mono hits" 4 s.Interp.Engine.meth_hit_mono;
  Alcotest.(check int) "never polymorphic" 0 s.Interp.Engine.meth_hit_poly

let test_polymorphic_prop_site () =
  (* same shape for property slots: one GetProp pc shared by two classes
     whose $x lives at (potentially) different physical slots *)
  let engine, result =
    run
      {|class A { prop $x = 1; }
        class B { prop $pad = 0; prop $x = 2; }
        function rd($o) { return $o->x; }
        function main() {
          $a = new A(); $b = new B(); $s = 0;
          for ($i = 0; $i < 3; $i = $i + 1) { $s = $s + rd($a) + rd($b); }
          return $s;
        }|}
  in
  Alcotest.(check bool) "reads correct under sharing" true (result = V.Int 9);
  let s = Interp.Engine.cache_stats engine in
  Alcotest.(check int) "prop misses" 2 s.Interp.Engine.prop_miss;
  Alcotest.(check int) "prop mono hits" 2 s.Interp.Engine.prop_hit_mono;
  Alcotest.(check int) "prop poly hits" 2 s.Interp.Engine.prop_hit_poly

let test_undefined_method_after_cache_install () =
  (* a site gone polymorphic must still raise on a receiver with no such
     method, not serve a stale entry *)
  expect_runtime_error
    {|class A { method m() { return 1; } }
      class B { }
      function go($o) { return $o->m(); }
      function main() { $a = new A(); go($a); go($a); $b = new B(); return go($b); }|}

(* Exercises literal and local operands read in place by their parent
   node, [$this] receivers passed as handles, returns of a local and of an
   expression, a constant branch with a dead else arm, dead stores and a
   cast. *)
let typed_src =
  {|class A { prop $x = 2; method get() { return $this->x; } }
    function tag($n) { return boolval($n < 5); }
    function main() {
      $k = 2 + 3 * 4;
      $dead = $k * 2;
      $dead = 0;
      if (1 < 2) { echo "then\n"; } else { echo "else\n"; }
      $a = new A();
      $s = 0;
      for ($i = 0; $i < 6; $i = $i + 1) { $s = $s + $a->get() + $k; }
      if (tag($s)) { $s = $s + 1; }
      return $s;
    }|}

(* Local op local (into a store, a branch or the stack), literal op local
   (into a store or the stack) and a bare [$this->v] read. *)
let local_ops_src =
  {|class P { prop $v = 3; method get() { return $this->v; } }
    function main() {
      $a = 4; $b = 9; $s = 0; $t = 0;
      for ($i = 0; $i < 5; $i = $i + 1) {
        $s = $a + $b;
        $t = 2 * $i;
        if ($a < $b) { $s = $s - $t; }
        echo $a - $i;
        echo 7 - $i;
      }
      $p = new P();
      return $s + $p->get();
    }|}

let test_inline_cache_off_is_identical () =
  let bump_src =
    {|class A { prop $x = 1; method bump() { $this->x = $this->x + 1; return $this->x; } }
      function main() {
        $a = new A(); $s = "";
        for ($i = 0; $i < 4; $i = $i + 1) { $s = $s . $a->bump() . ","; echo $s; }
        return $s;
      }|}
  in
  let run_with src inline_cache =
    let repo, heap = setup src in
    let engine = Interp.Engine.create ~inline_cache repo heap in
    let result = Interp.Engine.run_main engine in
    (result, Interp.Engine.output engine, Interp.Engine.steps engine)
  in
  List.iter
    (fun src ->
      Alcotest.(check bool) "result/output/steps identical" true
        (run_with src true = run_with src false))
    [ bump_src; typed_src ];
  let result, _, _ = run_with typed_src true in
  Alcotest.(check bool) "computes the expected value" true (result = V.Int 96);
  let repo, heap = setup bump_src in
  let off = Interp.Engine.create ~inline_cache:false repo heap in
  ignore (Interp.Engine.run_main off);
  let s = Interp.Engine.cache_stats off in
  Alcotest.(check int) "uncached engine never consults caches" 0
    (s.Interp.Engine.meth_hit_mono + s.Interp.Engine.meth_hit_poly + s.Interp.Engine.meth_miss
    + s.Interp.Engine.prop_hit_mono + s.Interp.Engine.prop_hit_poly + s.Interp.Engine.prop_miss)

(* --- differential: the compiled loop against the reference loop --- *)

(* Every raw probe event in order, each with the steps spent when it fired;
   [engine] is set once the engine exists. *)
let recorder () =
  let log = Buffer.create 1024 and engine = ref None in
  let ev fmt =
    Printf.ksprintf
      (fun s ->
        let steps = match !engine with Some e -> Interp.Engine.steps e | None -> -1 in
        Printf.bprintf log "%s@%d " s steps)
      fmt
  in
  let probes =
    Interp.Probes.Events
      {
        Interp.Probes.on_block = (fun f b -> ev "b%d.%d" f b);
        on_arc = (fun f ~src ~dst -> ev "a%d.%d>%d" f src dst);
        on_call = (fun ~caller ~site ~callee -> ev "c%d.%d>%d" caller site callee);
        on_func_entry = (fun f -> ev "e%d" f);
        on_func_exit = (fun f -> ev "x%d" f);
        on_prop_access = (fun c n ~addr ~write -> ev "p%d.%d.%d.%b" c n addr write);
      }
  in
  (probes, engine, log)

(* Runs [run] on a fresh engine over [setup ()]: the result or error, the
   echo output, the steps and, with [events], the recorded event stream. *)
let observe ~inline_cache ~events ~setup ~run fuel =
  let repo, heap = setup () in
  let probes, engine_ref, log = recorder () in
  let probes = if events then Some probes else None in
  let engine = Interp.Engine.create ?probes ~inline_cache ~fuel repo heap in
  engine_ref := Some engine;
  let result =
    match run engine with
    | result -> Ok result
    | exception Interp.Engine.Runtime_error msg -> Error msg
  in
  (result, Interp.Engine.output engine, Interp.Engine.steps engine, Buffer.contents log)

(* Fuel parity: the compiled loop must charge step-for-step like the
   reference loop, so truncating execution at every fuel level up to the
   full run's steps observes the same boundary: the same result or error,
   partial output and steps, and, with probes attached, the same raw event
   stream with the same step count at every event.  [max_fuel] caps a run
   that does not end by itself. *)
let sweep ?max_fuel name ~setup ~run =
  let full =
    match max_fuel with
    | Some n -> n
    | None ->
      let _, _, steps, _ = observe ~inline_cache:false ~events:false ~setup ~run 10_000_000 in
      steps + 1
  in
  for fuel = 1 to full do
    List.iter
      (fun events ->
        let product = observe ~inline_cache:true ~events ~setup ~run fuel
        and reference = observe ~inline_cache:false ~events ~setup ~run fuel in
        if product <> reference then begin
          let describe (r, out, steps, log) =
            Printf.sprintf "%s | output %S | steps %d | events %s"
              (match r with Ok _ -> "ok" | Error m -> m)
              out steps log
          in
          Alcotest.failf "%s: compiled/reference diverge at fuel %d%s:\n%s\n%s" name fuel
            (if events then " with probes" else "")
            (describe product) (describe reference)
        end)
      [ false; true ]
  done

(* Each call of [calls] in turn on one engine, an error ending only its
   own call: the engine must unwind cleanly and serve the next. *)
let calls_each calls engine =
  List.map
    (fun (name, args) ->
      let f = Option.get (Hhbc.Repo.find_func_by_name (Interp.Engine.repo engine) name) in
      match Interp.Engine.call engine f.Hhbc.Func.id args with
      | v -> Ok v
      | exception Interp.Engine.Runtime_error msg -> Error msg)
    calls

let test_typed_fuel_parity () =
  sweep "typed_src" ~setup:(fun () -> setup typed_src) ~run:(fun e -> [ Interp.Engine.run_main e ]);
  sweep "local_ops_src"
    ~setup:(fun () -> setup local_ops_src)
    ~run:(fun e -> [ Interp.Engine.run_main e ]);
  let engine, result = run local_ops_src in
  Alcotest.(check bool) "local_ops_src returns 8" true (result = V.Int 8);
  Alcotest.(check string) "local_ops_src output" "4736251403" (Interp.Engine.output engine);
  Alcotest.(check int) "local_ops_src steps" 194 (Interp.Engine.steps engine);
  let app = Workload.Codegen.generate Workload.App_spec.tiny in
  let repo = app.Workload.Codegen.repo in
  let layouts = Mh_runtime.Class_layout.build repo ~reorder:false ~hotness:(fun _ _ -> 0) in
  let mix = Workload.Request.uniform_mix app in
  sweep "tiny app"
    ~setup:(fun () -> (repo, Mh_runtime.Heap.create repo layouts))
    ~run:(fun engine ->
      let rng = Js_util.Rng.create 5 in
      List.init 2 (fun _ -> Workload.Request.invoke engine app (Workload.Request.sample rng mix)))

(* [&&] and [||] end a basic block inside an expression, so the operands
   already computed for the enclosing expression stay on the operand stack
   across the branch: a left operand of arithmetic, earlier call and
   method-call arguments, a receiver, the object of a property write. *)
let operands_src =
  {|class Box {
      prop $v = 1;
      prop $w = 0;
      method add($a, $b) { return $this->v + $a * 10 + $b; }
      method set($x, $y) {
        $this->w = $x && $y;
        $this->v = $this->v + int($x || $y);
        return $this->add($x || $y, $this->w && $x);
      }
    }
    function pair($a, $b) { echo $a . "," . $b . ";"; return $a + $b * 2; }
    function main() {
      $box = new Box();
      $s = 0;
      for ($i = 0; $i < 3; $i = $i + 1) {
        $t = $i > 0;
        $u = $i == 2;
        $s = $s + pair($i, $t || $u);
        $s = $s + pair($t && $u, $i) * 3;
        $s = $s + $box->add($i, $t || $u);
        $s = $s + $box->set($i, $u);
        $box->w = ($s || $i) && $t;
        echo $s . ":" . ($t || $u) . "\n";
      }
      return $s + len(vec[$s || 0, $box->w && 1]);
    }
    function bad_receiver($o, $a) { return 1 + $o->add($a, $a || 0); }
    function bad_write($o, $a) { $o->v = $a || 1; return 0; }
    function bad_div($a) { return 10 / ($a && 0); }
    function missing($a) { $box = new Box(); return $box->nope($a && 1); }|}

let test_cross_block_operands () =
  sweep "operands" ~setup:(fun () -> setup operands_src) ~run:(fun e -> [ Interp.Engine.run_main e ]);
  let calls =
    calls_each
      [ ("bad_receiver", [ V.Int 7; V.Int 0 ]); ("bad_write", [ V.Int 3; V.Int 0 ]);
        ("bad_div", [ V.Int 1 ]); ("missing", [ V.Int 1 ]); ("pair", [ V.Int 2; V.Bool true ])
      ]
  in
  sweep "operand errors" ~setup:(fun () -> setup operands_src) ~run:calls;
  let engine, result = run operands_src in
  Alcotest.(check string) "output" "0,;,0;2.0:\n1,1;,1;35.0:1\n2,1;1,2;91.0:1\n"
    (Interp.Engine.output engine);
  Alcotest.(check bool) "result" true (result = V.Float 93.);
  let repo, heap = setup operands_src in
  match calls (Interp.Engine.create repo heap) with
  | [ Error r; Error w; Error d; Error m; Ok p ] ->
    Alcotest.(check string) "receiver" "method call on non-object (int)" r;
    Alcotest.(check string) "write" "property write on non-object (int)" w;
    Alcotest.(check string) "division" "division by zero" d;
    Alcotest.(check string) "method" "call to undefined method Box::nope" m;
    Alcotest.(check bool) "served after the errors" true (p = V.Float 4.)
  | _ -> Alcotest.fail "expected four errors, then a result"

(* Calls with three or more arguments take the general call path: a
   direct call, a method call on [$this] and on another receiver, and a
   constructor, with arguments that are calls (so a misplaced charge
   shows in their events and output) or that cross a block boundary. *)
let wide_calls_src =
  {|class Acc {
      prop $v = 2;
      method __construct($a, $b, $c) { $this->v = $a + $b * $c; }
      method mix($a, $b, $c) { return $this->v * $a + $b - $c; }
      method twice($a, $b, $c) {
        return $this->mix($a, $b || $c, three($c, 0, 0)) + $this->mix(three(0, $a, 0), $a, $b && $a);
      }
    }
    function three($a, $b, $c) { echo $a . $b . $c . ";"; return $a * 100 + $b * 10 + $c; }
    function main() {
      $o = new Acc(1, three(0, 0, 2), 3);
      $s = 0;
      for ($i = 0; $i < 3; $i = $i + 1) {
        $s = $s + three($i || 0, 4, three(0, 0, $i)) + $o->mix($i, three(0, 0, $i), $i && 1);
        $s = $s + $o->twice($i, 1, 0);
      }
      return $s;
    }
    function bad_receiver3($o) { return 1 + $o->mix(1, $o || 0, three(0, 0, 3)); }
    function missing3($a) { $o = new Acc(1, 1, 1); return $o->nope($a, $a && 1, three(0, 0, 2)); }|}

let test_wide_calls () =
  sweep "wide calls"
    ~setup:(fun () -> setup wide_calls_src)
    ~run:(fun e -> [ Interp.Engine.run_main e ]);
  let calls =
    calls_each
      [ ("bad_receiver3", [ V.Int 7 ]); ("missing3", [ V.Int 1 ]);
        ("three", [ V.Int 1; V.Int 2; V.Int 3 ])
      ]
  in
  sweep "wide call errors" ~setup:(fun () -> setup wide_calls_src) ~run:calls;
  let engine, result = run wide_calls_src in
  Alcotest.(check string) "output" "002;000;40;000;000;000;001;141;001;000;010;002;142;002;000;020;"
    (Interp.Engine.output engine);
  Alcotest.(check bool) "result" true (result = V.Float 580.);
  let repo, heap = setup wide_calls_src in
  match calls (Interp.Engine.create repo heap) with
  | [ Error r; Error m; Ok v ] ->
    Alcotest.(check string) "receiver" "method call on non-object (int)" r;
    Alcotest.(check string) "method" "call to undefined method Acc::nope" m;
    Alcotest.(check bool) "served after the errors" true (v = V.Int 123)
  | _ -> Alcotest.fail "expected two errors, then a result"

(* Hand-built bodies with shapes no compiler path emits: [Dup] of a tree,
   a call result and a value live across a block boundary, [Nop] and
   stores with pending values below them, [Pop] of call results, and a
   return with values left below it. *)
let hand_built () =
  let module I = Hhbc.Instr in
  let b = Hhbc.Repo.Builder.create () in
  let func name ~n_params ~n_locals body =
    Hhbc.Repo.Builder.add_func b
      { Hhbc.Func.id = 0; name; unit_id = 0; class_id = None; n_params; n_locals; body }
  in
  (* tick($x): echo $x; return $x + 1 *)
  let tick =
    func "tick" ~n_params:1 ~n_locals:1
      [| I.LoadLoc 0; I.Print; I.LoadLoc 0; I.LitInt 1; I.BinOp I.Add; I.Ret |]
  in
  let leftover = func "leftover" ~n_params:0 ~n_locals:0 [| I.LitInt 1; I.LitInt 2; I.Call (tick, 1); I.Ret |] in
  let main =
    func "main" ~n_params:0 ~n_locals:3
      [| (* 0 *) I.Call (leftover, 0); I.Pop;
         (* 2: l0 = (3 + 4) * (3 + 4) *) I.LitInt 3; I.LitInt 4; I.BinOp I.Add; I.Dup; I.BinOp I.Mul;
         I.StoreLoc 0;
         (* 8: l1 = l0 + 1, a Nop above the pending load *) I.LoadLoc 0; I.Nop; I.LitInt 1;
         I.BinOp I.Add; I.StoreLoc 1;
         (* 13: l2 = l0 + 1, read before l0 = 7 *) I.LoadLoc 0; I.LitInt 7; I.StoreLoc 0; I.LitInt 1;
         I.BinOp I.Add; I.StoreLoc 2;
         (* 19: two calls, popped in reverse *) I.LitInt 1; I.Call (tick, 1); I.LitInt 2;
         I.Call (tick, 1); I.Pop; I.Pop;
         (* 25: a Dup'd value across a conditional *) I.LoadLoc 1; I.Dup; I.JmpZ 31;
         (* 28 *) I.LitInt 5; I.BinOp I.Sub; I.Jmp 33;
         (* 31 *) I.LitInt 9; I.BinOp I.Add;
         (* 33: a Dup'd call result *) I.LitInt 4; I.Call (tick, 1); I.Dup; I.BinOp I.Mul;
         I.BinOp I.Add;
         (* 38 *) I.LitInt 0; I.JmpNZ 42;
         (* 40 *) I.LitInt 1; I.Pop;
         (* 42 *) I.LitInt 8; I.Call (tick, 1); I.Pop; I.LitInt 100; I.LoadLoc 2; I.BinOp I.Sub;
         I.BinOp I.Add;
         (* 49 *) I.Dup; I.Print; I.Ret
      |]
  in
  (* spin(): $i = 0; then a block that jumps to itself *)
  let spin = func "spin" ~n_params:0 ~n_locals:1 [| I.LitInt 0; I.StoreLoc 0; I.Jmp 2 |] in
  ignore
    (Hhbc.Repo.Builder.add_unit b
       { Hhbc.Unit_def.id = 0; path = "hand.mh"; funcs = [| tick; leftover; main; spin |];
         classes = [||]; main = Some main; load_cost_bytes = 0 });
  let repo = Hhbc.Repo.Builder.finish b in
  let layouts = Mh_runtime.Class_layout.build repo ~reorder:false ~hotness:(fun _ _ -> 0) in
  (repo, Mh_runtime.Heap.create repo layouts)

let test_hand_built_bodies () =
  let repo, heap = hand_built () in
  List.iter
    (fun f ->
      Alcotest.(check (list string)) "verifier-clean" []
        (List.map Js_analysis.Diag.to_string
           (Js_analysis.Diag.errors (Js_analysis.Verify.check_func repo f))))
    (List.init (Hhbc.Repo.n_funcs repo) (Hhbc.Repo.func repo));
  let engine = Interp.Engine.create repo heap in
  let result = Interp.Engine.run_main engine in
  Alcotest.(check bool) "result" true (result = V.Int 120);
  Alcotest.(check string) "output" "21248120" (Interp.Engine.output engine);
  sweep "hand-built" ~setup:hand_built ~run:(fun e -> [ Interp.Engine.run_main e ]);
  (* a block that jumps to itself re-enters through the block probe *)
  sweep "self-jump" ~max_fuel:40 ~setup:hand_built ~run:(fun e -> calls_each [ ("spin", []) ] e)

(* --- allocation budget --- *)

(* Minor words per activation of the compiled loop with no probes, over
   fib(20)'s second run on one engine (the first fills the frame pool).
   The operands the program boxes cost 3 words (arguments go straight into
   the callee's frame, with no array); a per-activation closure, captured
   ref or argument array would show up on top of them. *)
let test_activation_budget () =
  let src =
    {|function fib($n) { if ($n < 2) { return $n; } return fib($n - 1) + fib($n - 2); }
      function main() { return fib(20); }|}
  in
  let repo, heap = setup src in
  let activations = ref 0 in
  let counting =
    Interp.Probes.Events
      { Interp.Probes.no_events with on_func_entry = (fun _ -> incr activations) }
  in
  ignore (Interp.Engine.run_main (Interp.Engine.create ~probes:counting repo heap));
  Alcotest.(check int) "activations" 21_892 !activations;
  let engine = Interp.Engine.create repo heap in
  ignore (Interp.Engine.run_main engine);
  let w0 = Gc.minor_words () in
  let result = Interp.Engine.run_main engine in
  let words = (Gc.minor_words () -. w0) /. float_of_int !activations in
  Alcotest.(check bool) "fib(20)" true (result = V.Int 6765);
  Printf.printf "compiled loop: %.2f minor words per activation\n" words;
  if words > 4.0 then
    Alcotest.failf "compiled loop: %.2f minor words per activation (budget 4.0)" words

let () =
  Alcotest.run "interp"
    [ ( "scalars",
        [ Alcotest.test_case "int arithmetic" `Quick test_int_arith;
          Alcotest.test_case "bit ops" `Quick test_bit_ops;
          Alcotest.test_case "arith errors" `Quick test_arith_errors;
          Alcotest.test_case "concat coercion" `Quick test_concat_coercion;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
          Alcotest.test_case "casts" `Quick test_casts
        ] );
      ( "containers",
        [ Alcotest.test_case "vec" `Quick test_vec_semantics;
          Alcotest.test_case "vec aliasing" `Quick test_vec_reference_semantics;
          Alcotest.test_case "dict" `Quick test_dict_semantics;
          Alcotest.test_case "string index" `Quick test_string_index
        ] );
      ( "objects",
        [ Alcotest.test_case "defaults + props" `Quick test_object_defaults_and_props;
          Alcotest.test_case "dispatch" `Quick test_method_dispatch_depth;
          Alcotest.test_case "undefined method" `Quick test_undefined_method;
          Alcotest.test_case "non-object receiver" `Quick test_method_on_non_object;
          Alcotest.test_case "instanceof" `Quick test_instanceof
        ] );
      ( "limits",
        [ Alcotest.test_case "stack overflow" `Quick test_stack_overflow;
          Alcotest.test_case "fuel" `Quick test_fuel_exhaustion
        ] );
      ( "probes",
        [ Alcotest.test_case "step accounting" `Quick test_steps_accounting;
          Alcotest.test_case "blocks + arcs" `Quick test_block_and_arc_probes;
          Alcotest.test_case "calls" `Quick test_call_probes;
          Alcotest.test_case "entry/exit balance" `Quick test_func_exit_probe_balances;
          Alcotest.test_case "prop addresses" `Quick test_prop_probe_addresses
        ] );
      ( "inline caches",
        [ Alcotest.test_case "polymorphic call site" `Quick test_polymorphic_call_site;
          Alcotest.test_case "monomorphic call site" `Quick test_monomorphic_call_site;
          Alcotest.test_case "polymorphic prop site" `Quick test_polymorphic_prop_site;
          Alcotest.test_case "miss after install raises" `Quick
            test_undefined_method_after_cache_install;
          Alcotest.test_case "cache off identical" `Quick test_inline_cache_off_is_identical
        ] );
      ( "typed translation",
        [ Alcotest.test_case "fuel parity at every boundary" `Quick test_typed_fuel_parity;
          Alcotest.test_case "operands across blocks" `Quick test_cross_block_operands;
          Alcotest.test_case "calls with three or more arguments" `Quick test_wide_calls;
          Alcotest.test_case "hand-built bodies" `Quick test_hand_built_bodies
        ] );
      ( "allocation budget",
        [ Alcotest.test_case "translated activation" `Quick test_activation_budget ] )
    ]
