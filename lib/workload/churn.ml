(* Deterministic code-churn generator (paper §VI-B: profiles go stale
   because the application is pushed multiple times per day).

   Mutates the synthetic app's AST under a seeded RNG, then recompiles
   through the production compiler — so the drifted build differs the way a
   real push differs: function ids, name/string tables, block structure and
   the repo fingerprint all shift, while the program stays well-formed.
   [rate] is the knob: the probability each worker function is touched at
   all (plus proportional endpoint/factory/layout churn).  [rate = 0.]
   returns the program unchanged, so churn-0 is byte-identical by
   construction.

   Mutation kinds, chosen per touched worker (cumulative probabilities):
   - {b edit} (50%): perturb one integer literal — the body changes, the
     name survives (stale matcher: name pass, non-strict);
   - {b rename} (20%): fresh name, every call site rewritten — the body
     survives verbatim (stale matcher: strict-hash pass);
   - {b remove} (10%): declaration deleted, call sites replaced by a
     constant (counters become garbage and must be dropped);
   - {b clone} (20%): duplicate under a fresh name (a matcher trap: two
     identical bodies must not cross-attribute counters).

   Independently, endpoints retarget a controller call (hot-path shift),
   factories tweak their class-mix thresholds, the base class rotates its
   property declaration order, and the worker declaration segment rotates
   (pure id drift: every name survives with a new fid).

   Only machinery the generator resolves positionally or by dynamic
   dispatch is off-limits: endpoint/factory names ([ep*]/[mk*], looked up
   by name after compilation), class names and method names (dispatch),
   property names (layout counters). *)

module A = Minihack.Ast
module R = Js_util.Rng

type config = { seed : int; rate : float }

type stats = {
  decls_total : int;
  decls_touched : int;  (** declarations edited, renamed, removed or cloned *)
  edits : int;
  renames : int;
  removals : int;
  clones : int;
  retargets : int;  (** endpoint controller calls moved to another worker *)
  threshold_tweaks : int;  (** factory class-mix threshold changes *)
  props_rotated : bool;  (** base-class property declaration order rotated *)
  workers_rotated : bool;  (** worker declaration segment rotated (id drift) *)
  edit_distance : float;  (** touched declarations / total declarations *)
}

(* --- generic AST mappers (bottom-up) --- *)

let rec map_expr f e =
  let r = map_expr f in
  let e =
    match e with
    | A.Int _ | A.Float _ | A.Str _ | A.Bool _ | A.Null | A.This | A.Var _ -> e
    | A.Binop (op, a, b) -> A.Binop (op, r a, r b)
    | A.Unop (op, a) -> A.Unop (op, r a)
    | A.Call (name, args) -> A.Call (name, List.map r args)
    | A.MethodCall (recv, name, args) -> A.MethodCall (r recv, name, List.map r args)
    | A.PropGet (e, p) -> A.PropGet (r e, p)
    | A.New (c, args) -> A.New (c, List.map r args)
    | A.VecLit es -> A.VecLit (List.map r es)
    | A.DictLit kvs -> A.DictLit (List.map (fun (k, v) -> (r k, r v)) kvs)
    | A.Index (a, b) -> A.Index (r a, r b)
    | A.InstanceOf (e, c) -> A.InstanceOf (r e, c)
  in
  f e

let map_lvalue f = function
  | A.LVar _ as lv -> lv
  | A.LIndex (a, b) -> A.LIndex (map_expr f a, map_expr f b)
  | A.LProp (e, p) -> A.LProp (map_expr f e, p)

let rec map_stmt f s =
  let e = map_expr f and b = map_block f in
  match s with
  | A.Expr x -> A.Expr (e x)
  | A.Assign (lv, x) -> A.Assign (map_lvalue f lv, e x)
  | A.VecPushStmt (v, x) -> A.VecPushStmt (e v, e x)
  | A.If (arms, els) -> A.If (List.map (fun (c, blk) -> (e c, b blk)) arms, b els)
  | A.While (c, blk) -> A.While (e c, b blk)
  | A.For (init, cond, step, blk) ->
    A.For (Option.map (map_stmt f) init, Option.map e cond, Option.map (map_stmt f) step, b blk)
  | A.Foreach (x, v, blk) -> A.Foreach (e x, v, b blk)
  | A.Return x -> A.Return (Option.map e x)
  | A.Echo x -> A.Echo (e x)
  | A.Break | A.Continue -> s

and map_block f blk = List.map (map_stmt f) blk

let map_func f (fd : A.func_decl) = { fd with A.body = map_block f fd.A.body }

let map_decl f = function
  | A.DFunc fd -> A.DFunc (map_func f fd)
  | A.DClass cd -> A.DClass { cd with A.cmethods = List.map (map_func f) cd.A.cmethods }

let map_program f program = List.map (map_decl f) program

(* --- individual mutations --- *)

(* Perturb the [k]-th integer literal of the body (two passes: count, then
   bump).  Every generated worker has several, so this always finds one. *)
let count_ints fd =
  let n = ref 0 in
  ignore (map_func (fun e -> (match e with A.Int _ -> incr n | _ -> ()); e) fd);
  !n

let perturb_int k fd =
  let seen = ref (-1) in
  map_func
    (fun e ->
      match e with
      | A.Int v ->
        incr seen;
        if !seen = k then A.Int (v + 1) else e
      | _ -> e)
    fd

let rename_calls ~from ~into program =
  map_program
    (fun e ->
      match e with
      | A.Call (name, args) when String.equal name from -> A.Call (into, args)
      | _ -> e)
    program

(* Removed worker: call sites collapse to a constant.  Generated call
   arguments are pure (variables and arithmetic), so dropping them is safe. *)
let drop_calls ~from program =
  map_program
    (fun e -> match e with A.Call (name, _) when String.equal name from -> A.Int 1 | _ -> e)
    program

let rotate = function [] -> [] | x :: rest -> rest @ [ x ]

(* --- the generator --- *)

let is_worker name = String.length name > 0 && name.[0] = 'w'
let is_endpoint name = String.length name > 1 && name.[0] = 'e' && name.[1] = 'p'
let is_factory name = String.length name > 1 && name.[0] = 'm' && name.[1] = 'k'

let churn_ast { seed; rate } program =
  let rng = R.create seed in
  let edits = ref 0 and renames = ref 0 and removals = ref 0 and clones = ref 0 in
  let retargets = ref 0 and threshold_tweaks = ref 0 in
  let decls_total = List.length program in
  (* Pass 1: per-worker mutations.  Renames/removals collect global rewrites
     applied to the whole program afterwards, so call sites in not-itself-
     mutated functions drift too — exactly what a push does. *)
  let rewrites = ref [] in
  let program =
    List.concat_map
      (fun decl ->
        match decl with
        | A.DFunc fd when is_worker fd.A.fname && rate > 0. && R.bool rng rate -> (
          let kind = R.float rng 1.0 in
          if kind < 0.5 then begin
            incr edits;
            [ A.DFunc (perturb_int (R.int rng (max 1 (count_ints fd))) fd) ]
          end
          else if kind < 0.7 then begin
            incr renames;
            let fresh = fd.A.fname ^ "_r" in
            rewrites := `Rename (fd.A.fname, fresh) :: !rewrites;
            [ A.DFunc { fd with A.fname = fresh } ]
          end
          else if kind < 0.8 then begin
            incr removals;
            rewrites := `Drop fd.A.fname :: !rewrites;
            []
          end
          else begin
            incr clones;
            [ decl; A.DFunc { fd with A.fname = fd.A.fname ^ "_c" } ]
          end)
        | _ -> [ decl ])
      program
  in
  let program =
    List.fold_left
      (fun p rw ->
        match rw with
        | `Rename (from, into) -> rename_calls ~from ~into p
        | `Drop from -> drop_calls ~from p)
      program (List.rev !rewrites)
  in
  (* Pass 2: hot-path shifts inside endpoints — retarget one layer-0
     controller call to the next controller. *)
  let layer0 =
    List.filter_map
      (function
        | A.DFunc fd when is_worker fd.A.fname && String.length fd.A.fname > 1 && fd.A.fname.[1] = '0'
          -> Some fd.A.fname
        | _ -> None)
      program
  in
  let n_layer0 = List.length layer0 in
  let program =
    List.map
      (fun decl ->
        match decl with
        | A.DFunc fd when is_endpoint fd.A.fname && rate > 0. && R.bool rng rate && n_layer0 > 1 ->
          let done_ = ref false in
          let fd =
            map_func
              (fun e ->
                match e with
                | A.Call (name, args)
                  when (not !done_) && is_worker name && String.length name > 1 && name.[1] = '0' ->
                  done_ := true;
                  incr retargets;
                  let idx =
                    let rec find i = function
                      | [] -> 0
                      | x :: _ when String.equal x name -> i
                      | _ :: rest -> find (i + 1) rest
                    in
                    find 0 layer0
                  in
                  A.Call (List.nth layer0 ((idx + 1) mod n_layer0), args)
                | _ -> e)
              fd
          in
          A.DFunc fd
        | A.DFunc fd when is_factory fd.A.fname && rate > 0. && R.bool rng (rate /. 2.) ->
          (* class-mix drift: the dominant class loses a little share *)
          incr threshold_tweaks;
          A.DFunc
            (map_func
               (fun e -> match e with A.Int 90 -> A.Int 85 | A.Int 96 -> A.Int 97 | _ -> e)
               fd)
        | _ -> decl)
      program
  in
  (* Pass 3: declaration-order churn.  Rotating the base class's property
     list shifts every name id; rotating the worker segment shifts every
     worker's function id while keeping names — pure id drift. *)
  let props_rotated = rate > 0. && R.bool rng (min 1.0 (2.0 *. rate)) in
  let program =
    if not props_rotated then program
    else
      List.map
        (function
          | A.DClass cd when String.equal cd.A.cname "Base" ->
            A.DClass { cd with A.cprops = rotate cd.A.cprops }
          | decl -> decl)
        program
  in
  let workers_rotated = rate > 0. && R.bool rng rate in
  let program =
    if not workers_rotated then program
    else begin
      (* rotate in place: extract the worker DFunc run, rotate, re-emit *)
      let workers =
        List.filter (function A.DFunc fd -> is_worker fd.A.fname | _ -> false) program
      in
      let rotated = ref (rotate workers) in
      List.map
        (fun decl ->
          match decl with
          | A.DFunc fd when is_worker fd.A.fname -> (
            match !rotated with
            | d :: rest ->
              rotated := rest;
              d
            | [] -> decl)
          | _ -> decl)
        program
    end
  in
  let decls_touched = !edits + !renames + !removals + !clones in
  let stats =
    {
      decls_total;
      decls_touched;
      edits = !edits;
      renames = !renames;
      removals = !removals;
      clones = !clones;
      retargets = !retargets;
      threshold_tweaks = !threshold_tweaks;
      props_rotated;
      workers_rotated;
      edit_distance = float_of_int decls_touched /. float_of_int (max 1 decls_total);
    }
  in
  (program, stats)

let generate config (spec : App_spec.t) =
  let program, hot = Codegen.build_ast spec in
  let program, stats = churn_ast config program in
  (Codegen.app_of_program spec ~hot program, stats)
