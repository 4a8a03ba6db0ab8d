(* Unit tests for the hhbc substrate: values, instructions, functions,
   classes, repo. *)

module V = Hhbc.Value
module I = Hhbc.Instr
module F = Hhbc.Func
module Repo = Hhbc.Repo

(* --- values --- *)

let test_truthy () =
  let cases =
    [ (V.Null, false); (V.Bool false, false); (V.Bool true, true); (V.Int 0, false);
      (V.Int 3, true); (V.Float 0., false); (V.Float 0.5, true); (V.Str "", false);
      (V.Str "x", true); (V.Vec (ref [||]), false); (V.Vec (ref [| V.Int 1 |]), true);
      (V.Obj 0, true)
    ]
  in
  List.iter
    (fun (v, expected) ->
      Alcotest.(check bool) (V.to_string v ^ " truthiness") expected (V.truthy v))
    cases

let test_equal_numeric_coercion () =
  Alcotest.(check bool) "int = float" true (V.equal (V.Int 2) (V.Float 2.));
  Alcotest.(check bool) "int <> str" false (V.equal (V.Int 2) (V.Str "2"));
  Alcotest.(check bool) "str = str" true (V.equal (V.Str "ab") (V.Str "ab"))

let test_equal_reference_semantics () =
  let a = ref [| V.Int 1 |] in
  Alcotest.(check bool) "same vec" true (V.equal (V.Vec a) (V.Vec a));
  Alcotest.(check bool) "different vecs with same content" false
    (V.equal (V.Vec a) (V.Vec (ref [| V.Int 1 |])))

let test_compare_values () =
  Alcotest.(check bool) "1 < 2" true (V.compare_values (V.Int 1) (V.Int 2) < 0);
  Alcotest.(check bool) "strings" true (V.compare_values (V.Str "a") (V.Str "b") < 0);
  Alcotest.check_raises "vec vs int"
    (Invalid_argument "Value.compare_values: cannot compare vec with int") (fun () ->
      ignore (V.compare_values (V.Vec (ref [||])) (V.Int 1)))

let test_to_string () =
  Alcotest.(check string) "int" "42" (V.to_string (V.Int 42));
  Alcotest.(check string) "bool true" "1" (V.to_string (V.Bool true));
  Alcotest.(check string) "bool false" "" (V.to_string (V.Bool false));
  Alcotest.(check string) "null" "" (V.to_string V.Null);
  Alcotest.(check string) "vec" "vec[1, 2]" (V.to_string (V.Vec (ref [| V.Int 1; V.Int 2 |])))

(* --- instructions --- *)

let test_branch_targets () =
  Alcotest.(check (list int)) "jmp" [ 7 ] (I.branch_targets (I.Jmp 7));
  Alcotest.(check (list int)) "jmpz" [ 3 ] (I.branch_targets (I.JmpZ 3));
  Alcotest.(check (list int)) "call has none" [] (I.branch_targets (I.Call (0, 1)))

let test_is_terminal () =
  Alcotest.(check bool) "ret" true (I.is_terminal I.Ret);
  Alcotest.(check bool) "jmp" true (I.is_terminal (I.Jmp 0));
  Alcotest.(check bool) "add" false (I.is_terminal (I.BinOp I.Add))

let test_byte_sizes_positive () =
  List.iter
    (fun i -> Alcotest.(check bool) "positive size" true (I.byte_size i > 0))
    [ I.LitInt 1; I.Jmp 0; I.Call (0, 0); I.GetProp 0; I.Ret ]

(* --- functions / basic blocks --- *)

let mk_func ?(n_locals = 1) body =
  { F.id = 0; name = "f"; unit_id = 0; class_id = None; n_params = 0; n_locals; body }

let test_basic_blocks_straight_line () =
  let f = mk_func [| I.LitInt 1; I.StoreLoc 0; I.LitNull; I.Ret |] in
  let blocks = F.basic_blocks f in
  Alcotest.(check int) "one block" 1 (Array.length blocks);
  Alcotest.(check int) "covers all" 4 blocks.(0).F.len;
  Alcotest.(check (list int)) "no succs" [] blocks.(0).F.succs

let test_basic_blocks_diamond () =
  (* 0: cond jumpz 3 / 1: then / 2: jmp 4 / 3: else / 4: ret *)
  let f =
    mk_func [| I.JmpZ 3; I.LitInt 1; I.Jmp 4; I.LitInt 2; I.Ret |]
  in
  (* blocks: [0], [1-2], [3], [4]; note instr 0 consumes a stack value that
     this synthetic body never pushes - fine for structural analysis *)
  let blocks = F.basic_blocks f in
  Alcotest.(check int) "4 blocks" 4 (Array.length blocks);
  Alcotest.(check (list int)) "entry succs (taken first)" [ 2; 1 ] blocks.(0).F.succs;
  Alcotest.(check (list int)) "then jumps to exit" [ 3 ] blocks.(1).F.succs;
  Alcotest.(check (list int)) "else falls through" [ 3 ] blocks.(2).F.succs

let test_basic_blocks_loop () =
  (* 0: header jumpz 3 / 1: body / 2: jmp 0 / 3: ret *)
  let f = mk_func [| I.JmpZ 3; I.Nop; I.Jmp 0; I.Ret |] in
  let blocks = F.basic_blocks f in
  Alcotest.(check int) "3 blocks" 3 (Array.length blocks);
  Alcotest.(check (list int)) "back edge" [ 0 ] blocks.(1).F.succs

let test_block_of_instr () =
  let f = mk_func [| I.JmpZ 2; I.Nop; I.Ret |] in
  let blocks = F.basic_blocks f in
  Alcotest.(check int) "instr 0" 0 (F.block_of_instr blocks 0);
  Alcotest.(check int) "instr 1" 1 (F.block_of_instr blocks 1);
  Alcotest.(check int) "instr 2" 2 (F.block_of_instr blocks 2)

let test_func_validate () =
  let ok = mk_func [| I.LitNull; I.Ret |] in
  Alcotest.(check bool) "valid" true (F.validate ok = Ok ());
  let bad_jump = mk_func [| I.Jmp 99; I.Ret |] in
  Alcotest.(check bool) "jump out of range" true (Result.is_error (F.validate bad_jump));
  let bad_local = mk_func [| I.LoadLoc 5; I.Ret |] in
  Alcotest.(check bool) "local out of range" true (Result.is_error (F.validate bad_local));
  let no_terminal = mk_func [| I.LitInt 1 |] in
  Alcotest.(check bool) "missing terminal" true (Result.is_error (F.validate no_terminal));
  let empty = mk_func [||] in
  Alcotest.(check bool) "empty body" true (Result.is_error (F.validate empty))

let test_bytecode_size () =
  let f = mk_func [| I.LitInt 1; I.Ret |] in
  Alcotest.(check int) "sum of instr sizes" (I.byte_size (I.LitInt 1) + I.byte_size I.Ret)
    (F.bytecode_size f)

(* --- repo builder --- *)

let build_two_class_repo () =
  let b = Repo.Builder.create () in
  let n_get = Repo.Builder.intern_name b "get" in
  let parent_get = Repo.Builder.reserve_func b in
  let child_get = Repo.Builder.reserve_func b in
  let parent = Repo.Builder.reserve_class b in
  let child = Repo.Builder.reserve_class b in
  let mk_method fid cid value =
    Repo.Builder.set_func b fid
      { F.id = fid; name = "get"; unit_id = 0; class_id = Some cid; n_params = 0; n_locals = 0;
        body = [| I.LitInt value; I.Ret |]
      }
  in
  mk_method parent_get parent 1;
  mk_method child_get child 2;
  let prop_x = Repo.Builder.intern_name b "x" in
  Repo.Builder.set_class b parent
    { Hhbc.Class_def.id = parent; name = "P"; parent = None;
      props = [| { Hhbc.Class_def.prop_name = prop_x; default = V.Int 0 } |];
      methods = [| (n_get, parent_get) |]; unit_id = 0
    };
  Repo.Builder.set_class b child
    { Hhbc.Class_def.id = child; name = "C"; parent = Some parent; props = [||];
      methods = [| (n_get, child_get) |]; unit_id = 0
    };
  ignore
    (Repo.Builder.add_unit b
       { Hhbc.Unit_def.id = 0; path = "test.mh"; funcs = [| parent_get; child_get |];
         classes = [| parent; child |]; main = None; load_cost_bytes = 100
       });
  (Repo.Builder.finish b, parent, child, n_get)

let test_builder_and_resolution () =
  let repo, parent, child, n_get = build_two_class_repo () in
  Alcotest.(check bool) "valid repo" true (Repo.validate repo = Ok ());
  Alcotest.(check int) "2 funcs" 2 (Repo.n_funcs repo);
  Alcotest.(check bool) "child override" true
    (Repo.resolve_method repo child n_get = Some 1);
  Alcotest.(check bool) "parent method" true (Repo.resolve_method repo parent n_get = Some 0);
  Alcotest.(check bool) "ancestor reflexive" true (Repo.is_ancestor repo ~ancestor:child ~cls:child);
  Alcotest.(check bool) "parent is ancestor" true (Repo.is_ancestor repo ~ancestor:parent ~cls:child);
  Alcotest.(check bool) "child not ancestor of parent" false
    (Repo.is_ancestor repo ~ancestor:child ~cls:parent)

let test_intern_dedup () =
  let b = Repo.Builder.create () in
  let a1 = Repo.Builder.intern_string b "x" in
  let a2 = Repo.Builder.intern_string b "x" in
  let a3 = Repo.Builder.intern_string b "y" in
  Alcotest.(check int) "same id" a1 a2;
  Alcotest.(check bool) "distinct id" true (a1 <> a3);
  let n1 = Repo.Builder.intern_name b "p" in
  let n2 = Repo.Builder.intern_name b "p" in
  Alcotest.(check int) "name dedup" n1 n2

let test_unset_reserved_slot () =
  let b = Repo.Builder.create () in
  ignore (Repo.Builder.reserve_func b);
  match Repo.Builder.finish b with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for unset function"

let test_repo_validate_catches_bad_refs () =
  let b = Repo.Builder.create () in
  ignore
    (Repo.Builder.add_func b
       { F.id = 0; name = "f"; unit_id = 0; class_id = None; n_params = 0; n_locals = 0;
         body = [| I.Call (42, 0); I.Ret |]
       });
  let repo = Repo.Builder.finish b in
  Alcotest.(check bool) "undefined callee" true (Result.is_error (Repo.validate repo))

let test_hash_goldens () =
  (* Pinned FNV-1a values.  These must never move — across OCaml versions,
     refactors or word sizes — because a silent change invalidates every
     published package fingerprint and every stale-profile matching key.
     (The old Hashtbl.hash-based mixing had exactly that failure mode.) *)
  let loop = mk_func [| I.JmpZ 3; I.Nop; I.Jmp 0; I.Ret |] in
  let b = Repo.Builder.create () in
  ignore (Repo.Builder.add_func b loop);
  let shape = Jit_profile.Stale_match.shape_of_repo (Repo.Builder.finish b) in
  let sg = shape.Jit_profile.Stale_match.sh_funcs.(0) in
  let golden = [ 0x10819a18670a4fbf; 0x33115e6fb5ebfa4b; 0x082f0407b4e859ca ] in
  Alcotest.(check (list int)) "strict block hashes golden" golden
    (Array.to_list sg.Jit_profile.Stale_match.sg_block_strict);
  Alcotest.(check (list int)) "loose block hashes golden" golden
    (Array.to_list sg.Jit_profile.Stale_match.sg_block_loose);
  let repo, _, _, _ = build_two_class_repo () in
  Alcotest.(check int) "fingerprint golden" 0x32c61f3afec3fe1a (Repo.fingerprint repo)

let test_find_by_name () =
  let repo, _, _, _ = build_two_class_repo () in
  Alcotest.(check bool) "class by name" true (Repo.find_class_by_name repo "C" <> None);
  Alcotest.(check bool) "missing class" true (Repo.find_class_by_name repo "Zed" = None);
  Alcotest.(check bool) "name lookup" true (Repo.find_name repo "get" <> None)

let () =
  Alcotest.run "hhbc"
    [ ( "value",
        [ Alcotest.test_case "truthiness" `Quick test_truthy;
          Alcotest.test_case "loose equality" `Quick test_equal_numeric_coercion;
          Alcotest.test_case "reference equality" `Quick test_equal_reference_semantics;
          Alcotest.test_case "comparison" `Quick test_compare_values;
          Alcotest.test_case "to_string" `Quick test_to_string
        ] );
      ( "instr",
        [ Alcotest.test_case "branch targets" `Quick test_branch_targets;
          Alcotest.test_case "terminals" `Quick test_is_terminal;
          Alcotest.test_case "byte sizes" `Quick test_byte_sizes_positive
        ] );
      ( "func",
        [ Alcotest.test_case "straight line" `Quick test_basic_blocks_straight_line;
          Alcotest.test_case "diamond" `Quick test_basic_blocks_diamond;
          Alcotest.test_case "loop" `Quick test_basic_blocks_loop;
          Alcotest.test_case "block_of_instr" `Quick test_block_of_instr;
          Alcotest.test_case "hash goldens pinned" `Quick test_hash_goldens;
          Alcotest.test_case "validation" `Quick test_func_validate;
          Alcotest.test_case "bytecode size" `Quick test_bytecode_size
        ] );
      ( "repo",
        [ Alcotest.test_case "builder + method resolution" `Quick test_builder_and_resolution;
          Alcotest.test_case "interning dedup" `Quick test_intern_dedup;
          Alcotest.test_case "unset reserved slot" `Quick test_unset_reserved_slot;
          Alcotest.test_case "validate bad refs" `Quick test_repo_validate_catches_bad_refs;
          Alcotest.test_case "find by name" `Quick test_find_by_name
        ] )
    ]
