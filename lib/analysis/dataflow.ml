(* Forward dataflow over the per-function basic-block CFG.

   Two concrete analyses share one worklist solver:

   - type-state inference: an abstract value per operand-stack slot and per
     local (Const < Tag < Any), joined at block entries, with branch
     refinement on [JmpZ]/[JmpNZ] over values whose provenance is known
     (a plain local load, or an [InstanceOf] test of a local);
   - constant propagation + folding with feasible-edge reachability: branch
     edges whose condition has a statically known truthiness are dead, and
     blocks only reachable through dead edges are dead code.

   Soundness contract: every fact is an over-approximation of what the
   interpreter can actually do.  Profiles are collected from real executions,
   so the P320/P321 package gates built on [feasible_succs]/[reach] must
   never reject an honestly collected profile, and [Stale_match] must never
   drop a transferred count on a block or arc a real run can take.  Anything
   uncertain therefore widens to [Any] / "both edges feasible". *)

module I = Hhbc.Instr
module F = Hhbc.Func
module V = Hhbc.Value

(* ---------------- abstract values ---------------- *)

module Absval = struct
  (* Const holds immutable scalars only (Null/Bool/Int/Float/Str): Vec, Dict
     and Obj values are mutable or identity-bearing and never constant-fold.
     [Tag TNull] is normalized to [Const Null] (the tag determines the
     value), so truthiness of a null-tagged value is always known. *)
  type t = Any | Tag of V.tag | Const of V.t

  let of_value v =
    match v with
    | V.Vec _ | V.Dict _ | V.Obj _ -> Tag (V.tag v)
    | V.Null | V.Bool _ | V.Int _ | V.Float _ | V.Str _ -> Const v

  let of_tag = function V.TNull -> Const V.Null | t -> Tag t

  (* Syntactic constant equality: deliberately stricter than [V.equal]
     (which calls Int 1 and Float 1. equal) so a join never conflates values
     with different runtime representations.  Floats compare by bits. *)
  let const_eq a b =
    match (a, b) with
    | V.Null, V.Null -> true
    | V.Bool x, V.Bool y -> x = y
    | V.Int x, V.Int y -> x = y
    | V.Float x, V.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    | V.Str x, V.Str y -> String.equal x y
    | (V.Null | V.Bool _ | V.Int _ | V.Float _ | V.Str _ | V.Vec _ | V.Dict _ | V.Obj _), _
      ->
      false

  let tag_of = function Any -> None | Tag t -> Some t | Const v -> Some (V.tag v)

  let join a b =
    match (a, b) with
    | Any, _ | _, Any -> Any
    | Const x, Const y when const_eq x y -> a
    | _ -> (
      match (tag_of a, tag_of b) with
      | Some ta, Some tb when ta = tb -> of_tag ta
      | _ -> Any)

  let equal a b =
    match (a, b) with
    | Any, Any -> true
    | Tag x, Tag y -> x = y
    | Const x, Const y -> const_eq x y
    | (Any | Tag _ | Const _), _ -> false

  (* [Some b]: the value is statically known to be truthy/falsy.  Objects
     are always truthy; null is normalized to [Const Null]. *)
  let truthiness = function
    | Const v -> Some (V.truthy v)
    | Tag V.TObj -> Some true
    | Tag _ | Any -> None
end

(* ---------------- constant folding ---------------- *)

(* Constants fold through the interpreter's own operators ({!Hhbc.Ops}).
   An operator that raises on its constant operands (division by zero,
   non-numeric arithmetic, incomparable operands, an unsupported cast) does
   not fold, and the abstract result falls back to the result tag. *)

let numeric_tag = function
  | V.TInt | V.TFloat | V.TBool | V.TNull -> true
  | V.TStr | V.TVec | V.TDict | V.TObj -> false

(* Abstract result of a binop: constants fold; otherwise comparisons,
   Concat and bit-ops have fixed result tags and arithmetic follows the
   int/float promotion of the engine. *)
let binop_result op a b =
  let tag_result () =
    match op with
    | I.Concat -> Absval.Tag V.TStr
    | I.Eq | I.Ne | I.Lt | I.Le | I.Gt | I.Ge -> Absval.Tag V.TBool
    | I.BitAnd | I.BitOr | I.BitXor | I.Shl | I.Shr -> Absval.Tag V.TInt
    | I.Add | I.Sub | I.Mul | I.Div | I.Mod -> (
      match (Absval.tag_of a, Absval.tag_of b) with
      | Some V.TInt, Some V.TInt -> Absval.Tag V.TInt
      | Some ta, Some tb when numeric_tag ta && numeric_tag tb -> Absval.Tag V.TFloat
      | _ -> Absval.Any)
  in
  match (a, b) with
  | Absval.Const x, Absval.Const y -> (
    match Hhbc.Ops.binop op x y with
    | v -> Absval.of_value v
    | exception Hhbc.Ops.Runtime_error _ -> tag_result ())
  | _ -> tag_result ()

let unop_result op a =
  let tag_result () =
    match op with
    | I.Not -> Absval.Tag V.TBool
    | I.Neg -> (
      match Absval.tag_of a with
      | Some V.TInt -> Absval.Tag V.TInt
      | Some V.TFloat -> Absval.Tag V.TFloat
      | _ -> Absval.Any)
    | I.BitNot -> Absval.Tag V.TInt
  in
  match a with
  | Absval.Const x -> (
    match Hhbc.Ops.unop op x with
    | v -> Absval.of_value v
    | exception Hhbc.Ops.Runtime_error _ -> tag_result ())
  | _ -> tag_result ()

let cast_result tag a =
  let tag_result () =
    match tag with
    | V.TBool -> Absval.Tag V.TBool
    | V.TStr -> Absval.Tag V.TStr
    | V.TInt -> (
      match Absval.tag_of a with
      | Some (V.TVec | V.TDict | V.TObj) -> Absval.Any
      | _ -> Absval.Tag V.TInt)
    | V.TFloat -> (
      match Absval.tag_of a with
      | Some (V.TVec | V.TDict | V.TObj) -> Absval.Any
      | _ -> Absval.Tag V.TFloat)
    | V.TNull | V.TVec | V.TDict | V.TObj -> Absval.Any
  in
  match a with
  | Absval.Const x -> (
    match Hhbc.Ops.cast tag x with
    | v -> Absval.of_value v
    | exception Hhbc.Ops.Runtime_error _ -> tag_result ())
  | _ -> tag_result ()

(* ---------------- generic worklist solver ---------------- *)

module Solver = struct
  type stats = { iterations : int; converged : bool }

  (* Forward solve: [transfer b fact] returns the out-fact per feasible
     successor (edge-wise, so branch refinement and edge pruning are the
     transfer function's business).  Block 0 is the entry.  [None] in the
     result means the block was never reached through feasible edges.
     Iterations are capped: the caller supplies a bound derived from the
     lattice height, and [converged] reports whether the fixed point was
     reached within it (every concrete lattice here is finite-height, so a
     correctly-bounded call always converges). *)
  let forward (type f) ~n_blocks ~(entry : f) ~(join : f -> f -> f)
      ~(equal : f -> f -> bool) ~(transfer : int -> f -> (int * f) list) ~max_iters =
    let inf : f option array = Array.make (max 1 n_blocks) None in
    if n_blocks = 0 then (inf, { iterations = 0; converged = true })
    else begin
      let queued = Array.make n_blocks false in
      let queue = Queue.create () in
      let enqueue b =
        if not queued.(b) then begin
          queued.(b) <- true;
          Queue.add b queue
        end
      in
      inf.(0) <- Some entry;
      enqueue 0;
      let iters = ref 0 in
      let converged = ref true in
      while not (Queue.is_empty queue) do
        let b = Queue.pop queue in
        queued.(b) <- false;
        if !iters >= max_iters then begin
          converged := false;
          Queue.clear queue
        end
        else begin
          incr iters;
          let fact = Option.get inf.(b) in
          List.iter
            (fun (s, out) ->
              if s >= 0 && s < n_blocks then
                match inf.(s) with
                | None ->
                  inf.(s) <- Some out;
                  enqueue s
                | Some cur ->
                  let merged = join cur out in
                  if not (equal merged cur) then begin
                    inf.(s) <- Some merged;
                    enqueue s
                  end)
            (transfer b fact)
        end
      done;
      (inf, { iterations = !iters; converged = !converged })
    end
end

(* ---------------- type-state over stack + locals ---------------- *)

(* Provenance of a stack slot, for branch refinement: a slot loaded from a
   local lets a JmpZ refine the local's abstract value on each edge; a slot
   produced by [InstanceOf] on a local proves the local is an object on the
   truthy edge.  Stores to the local invalidate the provenance. *)
type src = Src_none | Src_local of int | Src_instance_of of int

type slot = { av : Absval.t; src : src }

type state = {
  mutable stk : slot list;  (* operand stack, top first *)
  locs : Absval.t array;
}

let clone_state st = { stk = st.stk; locs = Array.copy st.locs }

let join_slot a b =
  {
    av = Absval.join a.av b.av;
    src = (if a.src = b.src then a.src else Src_none);
  }

(* Stacks of different depth only arise on V103-broken bodies; tops align at
   the list head, so truncating to the common prefix keeps the join total. *)
let rec join_stack xs ys =
  match (xs, ys) with
  | x :: xs', y :: ys' -> join_slot x y :: join_stack xs' ys'
  | _, _ -> []

let join_state a b =
  let locs = Array.mapi (fun i v -> Absval.join v b.locs.(i)) a.locs in
  { stk = join_stack a.stk b.stk; locs }

let equal_state a b =
  let rec eq_stk xs ys =
    match (xs, ys) with
    | [], [] -> true
    | x :: xs', y :: ys' -> x.src = y.src && Absval.equal x.av y.av && eq_stk xs' ys'
    | _, _ -> false
  in
  eq_stk a.stk b.stk
  && Array.for_all2 (fun x y -> Absval.equal x y) a.locs b.locs

let any_slot = { av = Absval.Any; src = Src_none }

let push st s = st.stk <- s :: st.stk

(* Clamped pop: an underflowing body (V102) still gets total, harmless
   facts — consumers gate real decisions on a clean verifier run. *)
let pop st =
  match st.stk with
  | [] -> any_slot
  | s :: tl ->
    st.stk <- tl;
    s

let popn st n =
  for _ = 1 to n do
    ignore (pop st)
  done

let store_local st l av =
  if l >= 0 && l < Array.length st.locs then begin
    st.locs.(l) <- av;
    (* the local changed: stack slots derived from its old value no longer
       speak for it *)
    st.stk <-
      List.map
        (fun s ->
          match s.src with
          | Src_local l' | Src_instance_of l' ->
            if l' = l then { s with src = Src_none } else s
          | Src_none -> s)
        st.stk
  end

(* The per-instruction abstract transfer.  Exhaustive on purpose (mirror of
   [Verify.stack_effect]): adding an opcode without stating its dataflow
   rule must fail this build.  Branch edge logic lives in [walk_block]; here
   the jump arms only account for their stack effect. *)
let step repo (f : F.t) st instr =
  let n_strings = Hhbc.Repo.n_strings repo in
  match instr with
  | I.Nop -> ()
  | I.LitInt n -> push st { av = Absval.Const (V.Int n); src = Src_none }
  | I.LitFloat x -> push st { av = Absval.Const (V.Float x); src = Src_none }
  | I.LitBool b -> push st { av = Absval.Const (V.Bool b); src = Src_none }
  | I.LitNull -> push st { av = Absval.Const V.Null; src = Src_none }
  | I.LitStr sid ->
    let av =
      if sid >= 0 && sid < n_strings then Absval.Const (V.Str (Hhbc.Repo.string repo sid))
      else Absval.Any
    in
    push st { av; src = Src_none }
  | I.LitArr _ -> push st { av = Absval.Tag V.TVec; src = Src_none }
  | I.LoadLoc l ->
    if l >= 0 && l < Array.length st.locs then
      push st { av = st.locs.(l); src = Src_local l }
    else push st any_slot
  | I.StoreLoc l ->
    let v = pop st in
    store_local st l v.av
  | I.Pop -> ignore (pop st)
  | I.Dup ->
    let s = pop st in
    push st s;
    push st s
  | I.BinOp op ->
    let b = pop st in
    let a = pop st in
    push st { av = binop_result op a.av b.av; src = Src_none }
  | I.UnOp op ->
    let a = pop st in
    push st { av = unop_result op a.av; src = Src_none }
  | I.Jmp _ -> ()
  | I.JmpZ _ -> ignore (pop st)
  | I.JmpNZ _ -> ignore (pop st)
  | I.Call (_, n) ->
    popn st n;
    push st any_slot
  | I.CallMethod (_, n) ->
    popn st (n + 1);
    push st any_slot
  | I.New (_, n) ->
    popn st n;
    push st { av = Absval.Tag V.TObj; src = Src_none }
  | I.GetThis -> push st { av = Absval.Tag V.TObj; src = Src_none }
  | I.GetProp _ ->
    ignore (pop st);
    push st any_slot
  | I.SetProp _ -> popn st 2
  | I.NewVec n ->
    popn st n;
    push st { av = Absval.Tag V.TVec; src = Src_none }
  | I.VecGet ->
    popn st 2;
    push st any_slot
  | I.VecSet -> popn st 3
  | I.VecPush -> popn st 2
  | I.VecLen ->
    ignore (pop st);
    push st { av = Absval.Tag V.TInt; src = Src_none }
  | I.NewDict n ->
    popn st (2 * n);
    push st { av = Absval.Tag V.TDict; src = Src_none }
  | I.DictGet ->
    popn st 2;
    push st any_slot
  | I.DictSet -> popn st 3
  | I.DictHas ->
    popn st 2;
    push st { av = Absval.Tag V.TBool; src = Src_none }
  | I.InstanceOf _ ->
    let a = pop st in
    let sl =
      match Absval.tag_of a.av with
      | Some t when t <> V.TObj ->
        (* non-objects are never instances: the engine pushes [Bool false] *)
        { av = Absval.Const (V.Bool false); src = Src_none }
      | _ ->
        let src =
          match a.src with Src_local l -> Src_instance_of l | _ -> Src_none
        in
        { av = Absval.Tag V.TBool; src }
    in
    push st sl
  | I.Cast tag ->
    let a = pop st in
    push st { av = cast_result tag a.av; src = Src_none }
  | I.Print -> ignore (pop st)
  | I.Ret -> ignore (pop st);
  ignore f

(* Refine the state along one branch edge given the truthiness of the
   consumed condition and its provenance. *)
let refine_edge st (cond : slot) ~truthy =
  let st = clone_state st in
  (match cond.src with
  | Src_local l when l >= 0 && l < Array.length st.locs ->
    let av = st.locs.(l) in
    let av' =
      if truthy then
        match av with Absval.Tag V.TBool -> Absval.Const (V.Bool true) | other -> other
      else
        match av with
        | Absval.Tag V.TBool -> Absval.Const (V.Bool false)
        | Absval.Tag V.TInt -> Absval.Const (V.Int 0)
        | Absval.Tag V.TStr -> Absval.Const (V.Str "")
        | other -> other
    in
    st.locs.(l) <- av'
  | Src_instance_of l when truthy && l >= 0 && l < Array.length st.locs ->
    (* [InstanceOf] only answers true for objects *)
    (match st.locs.(l) with
    | Absval.Const _ -> ()
    | Absval.Any | Absval.Tag _ -> st.locs.(l) <- Absval.Tag V.TObj)
  | Src_none | Src_local _ | Src_instance_of _ -> ());
  st

(* Run one block from its in-state; returns the feasible successor edges
   with their out-states. *)
let walk_block repo (f : F.t) (blocks : F.block array) (bmap : int array) b st =
  let n = Array.length f.F.body in
  let blk = blocks.(b) in
  let stop = blk.F.start + blk.F.len in
  let st = clone_state st in
  for pc = blk.F.start to stop - 2 do
    step repo f st f.F.body.(pc)
  done;
  let last = f.F.body.(stop - 1) in
  let cond = match st.stk with s :: _ -> s | [] -> any_slot in
  step repo f st last;
  let fall_edge () = if stop < n then [ (bmap.(stop), st) ] else [] in
  let branch_edges target ~taken_when =
    (* [taken_when]: the truthiness of the condition that takes the jump *)
    let tgt = if target >= 0 && target < n then Some bmap.(target) else None in
    match (tgt, Absval.truthiness cond.av) with
    | None, _ -> fall_edge ()
    | Some tb, Some t ->
      if t = taken_when then [ (tb, st) ] else fall_edge ()
    | Some tb, None ->
      let taken_st = refine_edge st cond ~truthy:taken_when in
      let fall_st = refine_edge st cond ~truthy:(not taken_when) in
      (tb, taken_st) :: (if stop < n then [ (bmap.(stop), fall_st) ] else [])
  in
  match last with
  | I.Jmp target ->
    if target >= 0 && target < n then [ (bmap.(target), st) ] else []
  | I.JmpZ target -> branch_edges target ~taken_when:false
  | I.JmpNZ target -> branch_edges target ~taken_when:true
  | I.Ret -> []
  | _ -> fall_edge ()

(* ---------------- per-function summary ---------------- *)

type summary = {
  blocks : F.block array;
  reach : bool array;  (* per block: reachable over feasible edges *)
  feasible_succs : int list array;
      (* per block: CFG successors reachable along feasible edges; subset of
         [blocks.(b).succs] (empty for unreachable blocks) *)
  iterations : int;
  converged : bool;
}

let trivial_summary blocks =
  {
    blocks;
    reach = Array.make (Array.length blocks) true;
    feasible_succs = Array.map (fun (b : F.block) -> b.F.succs) blocks;
    iterations = 0;
    converged = false;
  }

let feasible_edge summary ~src ~dst =
  src >= 0
  && src < Array.length summary.feasible_succs
  && List.mem dst summary.feasible_succs.(src)

(* Iteration bound for the type-state solve.  A block re-runs only when its
   in-fact strictly grows; each slot's chain is Const -> Tag -> Any (2
   steps) plus one provenance collapse, each local adds the same, and the
   stack holds at most [2n] slots (every instruction pushes at most 2).
   The bound below is that worst case with generous slack; the qcheck
   property pins random CFGs far under it. *)
let typestate_bound ~n_blocks ~body_len ~n_locals =
  64 + (n_blocks * ((8 * body_len) + (4 * n_locals) + 16))

let analyze_uncached repo (f : F.t) : summary =
  let n = Array.length f.F.body in
  let blocks = F.basic_blocks f in
  let nb = Array.length blocks in
  if n = 0 || nb = 0 then trivial_summary blocks
  else begin
    let n_locals = max 1 f.F.n_locals in
    let bmap = Array.make n 0 in
    Array.iter
      (fun (b : F.block) ->
        for i = b.F.start to b.F.start + b.F.len - 1 do
          bmap.(i) <- b.F.bb_id
        done)
      blocks;
    let entry =
      (* parameters arrive with caller-controlled values; the remaining
         locals start life as engine-zeroed null *)
      let locs =
        Array.init n_locals (fun l -> if l < f.F.n_params then Absval.Any else Absval.Const V.Null)
      in
      { stk = []; locs }
    in
    let max_iters = typestate_bound ~n_blocks:nb ~body_len:n ~n_locals in
    let inf, stats =
      Solver.forward ~n_blocks:nb ~entry ~join:join_state ~equal:equal_state
        ~transfer:(walk_block repo f blocks bmap) ~max_iters
    in
    if not stats.Solver.converged then
      { (trivial_summary blocks) with iterations = stats.Solver.iterations }
    else
      let feasible_succs =
        Array.mapi
          (fun b fact ->
            match fact with
            | None -> []
            | Some fact ->
              let succs = List.map fst (walk_block repo f blocks bmap b fact) in
              List.filter (fun s -> List.mem s succs) blocks.(b).F.succs)
          inf
      in
      {
        blocks;
        reach = Array.map Option.is_some inf;
        feasible_succs;
        iterations = stats.Solver.iterations;
        converged = true;
      }
  end

(* [memoize compute] is [compute] memoized per function of a repo: results
   are shared per repo by physical identity, bounded to the most recent
   few repos (sims and benches juggle one or two at a time), so qcheck
   loops generating many repos cannot accumulate memory.  A body that is
   not its repo's own function [f.id] is computed afresh. *)
let memo_cap = 8

let memoize compute =
  let memo = ref [] in
  fun repo (f : F.t) ->
    let fid = f.F.id in
    if fid < 0 || fid >= Hhbc.Repo.n_funcs repo || not (Hhbc.Repo.func repo fid == f) then
      compute repo f
    else begin
      let slots =
        match List.assq_opt repo !memo with
        | Some slots -> slots
        | None ->
          let slots = Array.make (Hhbc.Repo.n_funcs repo) None in
          memo := (repo, slots) :: !memo;
          if List.length !memo > memo_cap then
            memo := List.filteri (fun i _ -> i < memo_cap) !memo;
          slots
      in
      match slots.(fid) with
      | Some s -> s
      | None ->
        let s = compute repo f in
        slots.(fid) <- Some s;
        s
    end

(* [analyze] is pure over immutable inputs, and the package gates (at
   seeder validation and at every consumer boot) and stale matching ask
   for the same summaries, often once per boot per function. *)
let analyze = memoize analyze_uncached
