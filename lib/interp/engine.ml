exception Runtime_error = Hhbc.Ops.Runtime_error

let error fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

module V = Hhbc.Value
module I = Hhbc.Instr

(* --- per-call-site inline caches (HHVM-style dispatch machinery) ---

   Each CallMethod site carries a monomorphic entry (receiver class id ->
   resolved fid) with a polymorphic hashtable fallback; each GetProp/SetProp
   site caches (class id -> physical slot) so repeated accesses skip the
   layout-table lookup and go through the heap's direct slot fast path.
   Caches are per-engine, keyed by (fid, pc), and purely memoize pure
   lookups over the immutable repo/layout tables — semantics, probe streams
   and telemetry are byte-identical with caches on or off. *)

type meth_cache = {
  mutable m_cid : int;  (* monomorphic receiver class id; -1 = empty *)
  mutable m_fid : int;
  (* polymorphic fallback: class id -> fid + 1 (0 = empty), allocated with
     one slot per repo class the first time the site sees a second class *)
  mutable m_poly : int array;
}

type prop_cache = {
  mutable p_cid : int;  (* -1 = empty *)
  mutable p_slot : int;
  mutable p_poly : int array;  (* class id -> slot + 1 (0 = empty) *)
}

type site = No_cache | Meth of meth_cache | Prop of prop_cache

(* Translated instruction form executed by the cached loop — the analogue of
   HHVM translations.  Same indices as the source body (jump targets and
   probe/call sites line up), but literals are materialized once at
   translation time ([TPush] shares one immutable value across executions),
   and hot straight-line sequences are fused into superinstructions that
   dispatch once while charging one unit of fuel per source instruction of
   the sequence they replace.  Fused operands are bounds-checked against the
   frame at translation time, so only their final component can fault. *)
type tinstr =
  | TNop
  | TPush of V.t  (* prematerialized LitInt/LitFloat/LitBool/LitNull/LitStr *)
  | TLitArr of V.t array  (* static array payload, copied per execution *)
  | TLoadLoc of int
  | TStoreLoc of int
  | TPop
  | TDup
  | TBinOp of I.binop
  | TUnOp of I.unop
  | TJmp of int
  | TJmpZ of int
  | TJmpNZ of int
  | TCall of I.fid * int
  | TCallMethod of I.nid * int
  | TNew of I.cid * int
  | TGetThis
  | TGetProp of I.nid
  | TSetProp of I.nid
  | TNewVec of int
  | TVecGet
  | TVecSet
  | TVecPush
  | TVecLen
  | TNewDict of int
  | TDictGet
  | TDictSet
  | TDictHas
  | TInstanceOf of I.cid
  | TCast of V.tag
  | TPrint
  | TRet
  (* superinstructions (L = LoadLoc, V = literal value, B = BinOp,
     S = StoreLoc, Z = JmpZ, G = GetProp, T = GetThis, R = Ret); each
     counts as the w source instructions it replaces.  A form is kept only
     while a measured input (the benchmark apps, the perf macro mix, fib)
     executes it; DESIGN §3 has the counts. *)
  | TLVB of int * V.t * I.binop  (* local op lit;   w = 3 *)
  | TLVBS of int * V.t * I.binop * int  (* c := a op lit; w = 4 *)
  | TLVBZ of int * V.t * I.binop * int  (* if !(a op lit) jmp; w = 4 *)
  | TLRet of int  (* return local; w = 2 *)
  | TVB of V.t * I.binop  (* stacktop op lit; w = 2 *)
  | TBS of I.binop * int  (* stack binop, store; w = 2 *)
  | TBR of I.binop  (* stack binop, return; w = 2 *)
  | TVBS of V.t * I.binop * int  (* c := stacktop op lit; w = 3 *)
  | TVBZ of V.t * I.binop * int  (* if !(stacktop op lit) jmp; w = 3 *)
  | TLVBR of int * V.t * I.binop  (* return (a op lit); w = 4 *)
  | TLLGPBS of int * int * I.nid * I.binop * int  (* d := a op o->p; w = 5 *)
  | TLLGPBLBS of int * int * I.nid * I.binop * int * I.binop * int
      (* d := (a op1 o->p) op2 c; w = 7 *)
  | TGTGPLVBBS of I.nid * int * V.t * I.binop * I.binop * int
      (* d := this->p op2 (x op1 lit); w = 7 *)
  | TLGTGPVBBR of int * I.nid * V.t * I.binop * I.binop
      (* return a op2 (this->p op1 lit); w = 7 *)

type cache_stats = {
  mutable meth_hit_mono : int;
  mutable meth_hit_poly : int;
  mutable meth_miss : int;
  mutable prop_hit_mono : int;
  mutable prop_hit_poly : int;
  mutable prop_miss : int;
  mutable frame_reuses : int;
  mutable frame_allocs : int;
}

(* A simple growable operand stack per frame. *)
type stack = { mutable data : V.t array; mutable sp : int }

(* Reusable call frame: locals buffer + operand stack, pooled by depth so
   exec_func does not allocate per invocation. *)
type frame = { mutable locals : V.t array; stack : stack }

(* --- profiling state: the recorders' resolved slots ---

   Each counter a recorder owns is resolved once (per function, arc, call
   site and callee, class property, or translation) and cached here; the
   loops then bump it in place.  Sentinels stand for "not resolved yet". *)

let no_cell = ref 0

(* A function's tier-1 slots. *)
type slots1 = {
  blocks : int array;  (* per basic block *)
  entries : int ref;
  arc_dst : int array;  (* two per source block: a destination, -1 free *)
  arc_cell : int ref array;
  calls : Probes.call_counts array array;  (* per call site, the callees seen *)
}

(* A function's tier-2 state.  [pics] is the replay's model of the
   translation's polymorphic inline caches: per call site, the first
   [pic_entries] distinct callees dispatch on the fast path (-1: free);
   any other callee runs the site's slow-path block. *)
type slots2 = {
  own : Probes.translation;  (* [untranslated] when the function has none *)
  pics : int array;
  mutable entry : int ref;  (* out-of-line entries *)
  mutable callers : int array;  (* the callers seen, each with its call-graph cell *)
  mutable edges : int ref array;
}

(* One activation's profiling state, pooled by call depth.  [site] and
   [msite] describe the activation's latest call: its bytecode offset, and
   whether it dispatches dynamically ([CallMethod], [New]).  Tier 2: the
   translation the activation runs in, its inline node and that node's
   main blocks, whether it shares the caller's translation (inlined), the
   caller's last vasm block when it was entered, and the activation's own
   last vasm block. *)
type act = {
  mutable afid : int;
  mutable site : int;
  mutable msite : bool;
  mutable s1 : slots1;
  mutable tr : Probes.translation;
  mutable main : int array;
  mutable node : int;
  mutable inlined : bool;
  mutable parent_last : int;
  mutable last : int;
}

let no_slots1 = { blocks = [||]; entries = no_cell; arc_dst = [||]; arc_cell = [||]; calls = [||] }

let untranslated =
  Probes.translation ~root:(-1) ~node_fid:[||] ~main:[||] ~child:[||] ~slow:[||]
    (Probes.Emit { on_vblock = (fun _ -> ()); on_varc = (fun ~src:_ ~dst:_ -> ()) })

let no_slots2 = { own = untranslated; pics = [||]; entry = no_cell; callers = [||]; edges = [||] }

let new_act () =
  {
    afid = -1;
    site = -1;
    msite = false;
    s1 = no_slots1;
    tr = untranslated;
    main = [||];
    node = 0;
    inlined = false;
    parent_last = -1;
    last = -1;
  }

let no_act = new_act ()

type t = {
  repo : Hhbc.Repo.t;
  heap : Mh_runtime.Heap.t;
  probes : Probes.t;
  profiled : bool;  (* [probes] is not [Off] *)
  prop_probes : bool;  (* a probe counts or reads property accesses *)
  prop_addrs : bool;  (* a probe reads property addresses *)
  slots1 : slots1 array;  (* per function *)
  slots2 : slots2 array;
  mutable prop_cells : int ref array array;  (* tier 1: per class, by physical slot *)
  mutable acts : act array;  (* pool indexed by call depth *)
  out : Buffer.t;
  fuel0 : int;  (* the fuel [create] was given *)
  (* the engine's one work counter: each executed source instruction
     spends one unit, so [fuel0 - fuel] is the steps taken *)
  mutable fuel : int;
  mutable depth : int;
  (* instruction index -> basic block id, per function, computed on demand *)
  block_maps : int array option array;
  (* instruction index -> end index (exclusive) of its basic block; lets the
     fast loop run straight-line code without per-instruction boundary
     checks *)
  block_limits : int array option array;
  (* true: the translated loop [exec_fast]; false: the reference loop
     [exec_func] *)
  translated : bool;
  (* per-function translations, same shape as the function body *)
  tcodes : tinstr array option array;
  (* per-function site-cache arrays, same shape as the function body *)
  site_caches : site array option array;
  mutable frames : frame array;  (* pool indexed by call depth *)
  stats : cache_stats;
}

let max_depth = 2000
let pic_entries = 2

(* (destination, slot) pairs cached per source vasm block *)
let arc_ways = 4

let stack_make () = { data = Array.make 16 V.Null; sp = 0 }

let block_map t fid =
  match t.block_maps.(fid) with
  | Some m -> m
  | None ->
    let f = Hhbc.Repo.func t.repo fid in
    let blocks = Hhbc.Func.basic_blocks f in
    let m = Array.make (Array.length f.Hhbc.Func.body) 0 in
    let lim = Array.make (Array.length f.Hhbc.Func.body) 0 in
    Array.iter
      (fun (b : Hhbc.Func.block) ->
        for i = b.start to b.start + b.len - 1 do
          m.(i) <- b.bb_id;
          lim.(i) <- b.start + b.len
        done)
      blocks;
    t.block_maps.(fid) <- Some m;
    t.block_limits.(fid) <- Some lim;
    m

let block_limit t fid =
  match t.block_limits.(fid) with
  | Some lim -> lim
  | None ->
    ignore (block_map t fid);
    Option.get t.block_limits.(fid)

(* Translate a function body for the cached loop.  A slot that heads a
   fusable pattern gets the superinstruction; every other slot, including
   the tail slots a superinstruction covers, keeps its 1:1 form, so the
   translation stays valid from any entry index — fusion never crosses a
   basic-block boundary, and jump targets always start blocks, so a fused
   head cannot be jumped into mid-sequence. *)
let translate t fid =
  match t.tcodes.(fid) with
  | Some c -> c
  | None ->
    let f = Hhbc.Repo.func t.repo fid in
    (* Static verification gates the fast path: a body is only translated
       once FuncChecker-style abstract interpretation has proven its stack
       discipline, jump targets and repo links — the tinstr block maps and
       per-pc site caches below assume exactly those invariants. *)
    (match Js_analysis.Diag.errors (Js_analysis.Verify.check_func t.repo f) with
    | [] -> ()
    | first :: _ -> error "verification failed: %s" (Js_analysis.Diag.to_string first));
    let body = f.Hhbc.Func.body in
    let n = Array.length body in
    let blim = block_limit t fid in
    let n_locals = max 1 f.Hhbc.Func.n_locals in
    let lit = function
      | I.LitInt v -> Some (V.Int v)
      | I.LitFloat v -> Some (V.Float v)
      | I.LitBool b -> Some (V.Bool b)
      | I.LitNull -> Some V.Null
      | I.LitStr sid -> Some (V.Str (Hhbc.Repo.string t.repo sid))
      | _ -> None
    in
    let single i =
      match body.(i) with
      | I.Nop -> TNop
      | I.LitInt v -> TPush (V.Int v)
      | I.LitFloat v -> TPush (V.Float v)
      | I.LitBool b -> TPush (V.Bool b)
      | I.LitNull -> TPush V.Null
      | I.LitStr sid -> TPush (V.Str (Hhbc.Repo.string t.repo sid))
      | I.LitArr aid -> TLitArr (Hhbc.Repo.static_array t.repo aid)
      | I.LoadLoc l -> TLoadLoc l
      | I.StoreLoc l -> TStoreLoc l
      | I.Pop -> TPop
      | I.Dup -> TDup
      | I.BinOp op -> TBinOp op
      | I.UnOp op -> TUnOp op
      | I.Jmp x -> TJmp x
      | I.JmpZ x -> TJmpZ x
      | I.JmpNZ x -> TJmpNZ x
      | I.Call (callee, k) -> TCall (callee, k)
      | I.CallMethod (nid, k) -> TCallMethod (nid, k)
      | I.New (cid, k) -> TNew (cid, k)
      | I.GetThis -> TGetThis
      | I.GetProp nid -> TGetProp nid
      | I.SetProp nid -> TSetProp nid
      | I.NewVec k -> TNewVec k
      | I.VecGet -> TVecGet
      | I.VecSet -> TVecSet
      | I.VecPush -> TVecPush
      | I.VecLen -> TVecLen
      | I.NewDict k -> TNewDict k
      | I.DictGet -> TDictGet
      | I.DictSet -> TDictSet
      | I.DictHas -> TDictHas
      | I.InstanceOf cid -> TInstanceOf cid
      | I.Cast tag -> TCast tag
      | I.Print -> TPrint
      | I.Ret -> TRet
    in
    (* fusion: [in_blk i w] keeps a w-wide pattern inside instruction i's
       basic block; [loc l] proves the local index safe at translation time
       so fused loads/stores cannot fault at run time.  At each head the
       widest matching pattern wins. *)
    let in_blk i w = i + w <= blim.(i) in
    let loc l = l >= 0 && l < n_locals in
    let fuse7 i =
      match
        (body.(i), body.(i + 1), body.(i + 2), body.(i + 3), body.(i + 4), body.(i + 5), body.(i + 6))
      with
      | I.LoadLoc a, I.LoadLoc o, I.GetProp p, I.BinOp op1, I.LoadLoc c, I.BinOp op2, I.StoreLoc d
        when loc a && loc o && loc c && loc d ->
        Some (TLLGPBLBS (a, o, p, op1, c, op2, d))
      | I.GetThis, I.GetProp p, I.LoadLoc x, l4, I.BinOp op1, I.BinOp op2, I.StoreLoc d
        when loc x && loc d && lit l4 <> None ->
        Some (TGTGPLVBBS (p, x, Option.get (lit l4), op1, op2, d))
      | I.LoadLoc a, I.GetThis, I.GetProp p, l4, I.BinOp op1, I.BinOp op2, I.Ret
        when loc a && lit l4 <> None ->
        Some (TLGTGPVBBR (a, p, Option.get (lit l4), op1, op2))
      | _ -> None
    in
    let fuse5 i =
      match (body.(i), body.(i + 1), body.(i + 2), body.(i + 3), body.(i + 4)) with
      | I.LoadLoc a, I.LoadLoc o, I.GetProp p, I.BinOp op, I.StoreLoc d
        when loc a && loc o && loc d ->
        Some (TLLGPBS (a, o, p, op, d))
      | _ -> None
    in
    let fuse4 i =
      match (body.(i), body.(i + 1), body.(i + 2), body.(i + 3)) with
      | I.LoadLoc a, l2, I.BinOp op, I.StoreLoc c when loc a && loc c && lit l2 <> None ->
        Some (TLVBS (a, Option.get (lit l2), op, c))
      | I.LoadLoc a, l2, I.BinOp op, I.JmpZ target when loc a && lit l2 <> None ->
        Some (TLVBZ (a, Option.get (lit l2), op, target))
      | I.LoadLoc a, l2, I.BinOp op, I.Ret when loc a && lit l2 <> None ->
        Some (TLVBR (a, Option.get (lit l2), op))
      | _ -> None
    in
    let fuse3 i =
      match (body.(i), body.(i + 1), body.(i + 2)) with
      | I.LoadLoc a, l2, I.BinOp op when loc a && lit l2 <> None ->
        Some (TLVB (a, Option.get (lit l2), op))
      | l1, I.BinOp op, I.StoreLoc d when loc d && lit l1 <> None ->
        Some (TVBS (Option.get (lit l1), op, d))
      | l1, I.BinOp op, I.JmpZ target when lit l1 <> None ->
        Some (TVBZ (Option.get (lit l1), op, target))
      | _ -> None
    in
    let fuse2 i =
      match (body.(i), body.(i + 1)) with
      | I.LoadLoc a, I.Ret when loc a -> Some (TLRet a)
      | l1, I.BinOp op when lit l1 <> None -> Some (TVB (Option.get (lit l1), op))
      | I.BinOp op, I.StoreLoc d when loc d -> Some (TBS (op, d))
      | I.BinOp op, I.Ret -> Some (TBR op)
      | _ -> None
    in
    let patterns = [ (7, fuse7); (5, fuse5); (4, fuse4); (3, fuse3); (2, fuse2) ] in
    let code =
      Array.init n (fun i ->
          match List.find_map (fun (w, fuse) -> if in_blk i w then fuse i else None) patterns with
          | Some fused -> fused
          | None -> single i)
    in
    t.tcodes.(fid) <- Some code;
    code

let create ?(probes = Probes.none) ?(fuel = 200_000_000) ?(inline_cache = true) ?(typed = true)
    repo heap =
  let translated = inline_cache && typed in
  let n_funcs = Hhbc.Repo.n_funcs repo in
  let t =
    {
      repo;
      heap;
      probes;
      profiled = (match probes with Probes.Off -> false | _ -> true);
      prop_probes =
        (match probes with
        | Probes.Events _ | Probes.Tier1 _ | Probes.Tier2 { on_prop = Some _; _ } -> true
        | Probes.Off | Probes.Tier2 _ -> false);
      prop_addrs =
        (match probes with
        | Probes.Events _ | Probes.Tier2 { on_prop = Some _; _ } -> true
        | Probes.Off | Probes.Tier1 _ | Probes.Tier2 _ -> false);
      slots1 = (match probes with Probes.Tier1 _ -> Array.make n_funcs no_slots1 | _ -> [||]);
      slots2 = (match probes with Probes.Tier2 _ -> Array.make n_funcs no_slots2 | _ -> [||]);
      prop_cells = [||];
      acts = [||];
      out = Buffer.create 256;
      fuel0 = fuel;
      fuel;
      depth = 0;
      block_maps = Array.make (Hhbc.Repo.n_funcs repo) None;
      block_limits = Array.make (Hhbc.Repo.n_funcs repo) None;
      translated;
      tcodes = Array.make (Hhbc.Repo.n_funcs repo) None;
      site_caches = Array.make (Hhbc.Repo.n_funcs repo) None;
      frames = [||];
      stats =
        {
          meth_hit_mono = 0;
          meth_hit_poly = 0;
          meth_miss = 0;
          prop_hit_mono = 0;
          prop_hit_poly = 0;
          prop_miss = 0;
          frame_reuses = 0;
          frame_allocs = 0;
        };
    }
  in
  (* "JIT all code before the first request": on the translated loop, block
     maps and translations are precomputed at creation instead of lazily on
     first entry *)
  if translated then
    for fid = 0 to Hhbc.Repo.n_funcs repo - 1 do
      ignore (translate t fid)
    done;
  t

let repo t = t.repo
let heap t = t.heap
let steps t = t.fuel0 - t.fuel
let output t = Buffer.contents t.out
let cache_stats t = t.stats

let cache_counters t =
  let s = t.stats in
  [ ("interp.cache.meth_hit_mono", s.meth_hit_mono);
    ("interp.cache.meth_hit_poly", s.meth_hit_poly); ("interp.cache.meth_miss", s.meth_miss);
    ("interp.cache.prop_hit_mono", s.prop_hit_mono);
    ("interp.cache.prop_hit_poly", s.prop_hit_poly); ("interp.cache.prop_miss", s.prop_miss);
    ("interp.frame.reuses", s.frame_reuses); ("interp.frame.allocs", s.frame_allocs)
  ]

let sites t fid body_len =
  match t.site_caches.(fid) with
  | Some s -> s
  | None ->
    let s = Array.make (max 1 body_len) No_cache in
    t.site_caches.(fid) <- Some s;
    s

(* --- operator fast paths (the semantics are {!Hhbc.Ops}, which dataflow
   constant folding shares) --- *)

(* Shared result values for the cached loop: Bool results of comparisons are
   immutable, so all sites can return the same two blocks instead of
   allocating per comparison. *)
let vtrue = V.Bool true
let vfalse = V.Bool false
let vbool b = if b then vtrue else vfalse

(* int/int fast paths for the hottest operators; everything else (and every
   error case) defers to {!Hhbc.Ops.binop}, so results are identical. *)
let binop_fast op a b =
  match (a, b) with
  | V.Int x, V.Int y -> (
    match op with
    | I.Add -> V.Int (x + y)
    | I.Sub -> V.Int (x - y)
    | I.Mul -> V.Int (x * y)
    | I.Lt -> vbool (x < y)
    | I.Le -> vbool (x <= y)
    | I.Gt -> vbool (x > y)
    | I.Ge -> vbool (x >= y)
    | I.Eq -> vbool (x = y)
    | I.Ne -> vbool (x <> y)
    | _ -> Hhbc.Ops.binop op a b)
  | _ -> Hhbc.Ops.binop op a b

let container_get t base key =
  match base with
  | V.Vec a -> (
    match key with
    | V.Int i ->
      if i < 0 || i >= Array.length !a then error "vec index %d out of bounds (len %d)" i (Array.length !a)
      else !a.(i)
    | _ -> error "vec index must be int")
  | V.Dict d -> (
    let k = V.to_string key in
    match Hashtbl.find_opt d k with Some v -> v | None -> V.Null)
  | V.Str s -> (
    match key with
    | V.Int i ->
      if i < 0 || i >= String.length s then error "string index %d out of bounds" i
      else V.Str (String.make 1 s.[i])
    | _ -> error "string index must be int")
  | _ ->
    ignore t;
    error "cannot index into %s" (V.tag_to_string (V.tag base))

let container_set base key v =
  match base with
  | V.Vec a -> (
    match key with
    | V.Int i ->
      let len = Array.length !a in
      if i >= 0 && i < len then !a.(i) <- v
      else if i = len then a := Array.append !a [| v |]
      else error "vec index %d out of bounds for write (len %d)" i len
    | _ -> error "vec index must be int")
  | V.Dict d ->
    let k = V.to_string key in
    Hashtbl.replace d k v
  | _ -> error "cannot index-assign into %s" (V.tag_to_string (V.tag base))

let vec_len = function
  | V.Vec a -> V.Int (Array.length !a)
  | V.Dict d -> V.Int (Hashtbl.length d)
  | V.Str s -> V.Int (String.length s)
  | v -> error "len of %s" (V.tag_to_string (V.tag v))

(* --- frame execution --- *)

let push st v =
  if st.sp = Array.length st.data then begin
    let grown = Array.make (2 * st.sp) V.Null in
    Array.blit st.data 0 grown 0 st.sp;
    st.data <- grown
  end;
  st.data.(st.sp) <- v;
  st.sp <- st.sp + 1

let pop st =
  if st.sp = 0 then error "operand stack underflow";
  st.sp <- st.sp - 1;
  st.data.(st.sp)

let pop_n st n =
  let args = Array.make n V.Null in
  for i = n - 1 downto 0 do
    args.(i) <- pop st
  done;
  args

(* Heap property errors surface as Failure; execution must report them as
   ordinary runtime errors. *)
let heap_op f = try f () with Failure msg -> error "%s" msg

(* Method resolution through the (fid, pc) site cache.  Monomorphic entry
   first, then the polymorphic table; a miss consults the repo's hierarchy
   walk and installs the binding.  Unresolvable methods are not cached (the
   caller raises and execution aborts). *)
let resolve_method_cached t (site_arr : site array) pc cid nid =
  match site_arr.(pc) with
  | Meth mc when mc.m_cid = cid ->
    t.stats.meth_hit_mono <- t.stats.meth_hit_mono + 1;
    Some mc.m_fid
  | Meth mc ->
    let hit = if Array.length mc.m_poly = 0 then 0 else mc.m_poly.(cid) in
    if hit > 0 then begin
      t.stats.meth_hit_poly <- t.stats.meth_hit_poly + 1;
      Some (hit - 1)
    end
    else begin
      t.stats.meth_miss <- t.stats.meth_miss + 1;
      match Hhbc.Repo.resolve_method t.repo cid nid with
      | None -> None
      | Some fid ->
        if Array.length mc.m_poly = 0 then
          mc.m_poly <- Array.make (Hhbc.Repo.n_classes t.repo) 0;
        mc.m_poly.(cid) <- fid + 1;
        Some fid
    end
  | No_cache | Prop _ -> (
    t.stats.meth_miss <- t.stats.meth_miss + 1;
    match Hhbc.Repo.resolve_method t.repo cid nid with
    | None -> None
    | Some fid ->
      site_arr.(pc) <- Meth { m_cid = cid; m_fid = fid; m_poly = [||] };
      Some fid)

(* Property-slot resolution through the (fid, pc) site cache; a hit gives a
   physical slot for the heap's direct get_slot/set_slot fast path. *)
let resolve_slot_cached t (site_arr : site array) pc cid nid =
  match site_arr.(pc) with
  | Prop pr when pr.p_cid = cid ->
    t.stats.prop_hit_mono <- t.stats.prop_hit_mono + 1;
    Some pr.p_slot
  | Prop pr ->
    let hit = if Array.length pr.p_poly = 0 then 0 else pr.p_poly.(cid) in
    if hit > 0 then begin
      t.stats.prop_hit_poly <- t.stats.prop_hit_poly + 1;
      Some (hit - 1)
    end
    else begin
      t.stats.prop_miss <- t.stats.prop_miss + 1;
      match Mh_runtime.Heap.slot_of t.heap cid nid with
      | None -> None
      | Some slot ->
        if Array.length pr.p_poly = 0 then
          pr.p_poly <- Array.make (Hhbc.Repo.n_classes t.repo) 0;
        pr.p_poly.(cid) <- slot + 1;
        Some slot
    end
  | No_cache | Meth _ -> (
    t.stats.prop_miss <- t.stats.prop_miss + 1;
    match Mh_runtime.Heap.slot_of t.heap cid nid with
    | None -> None
    | Some slot ->
      site_arr.(pc) <- Prop { p_cid = cid; p_slot = slot; p_poly = [||] };
      Some slot)

(* Same runtime error the uncached heap path raises on an unknown property. *)
let undefined_prop t cid nid =
  error "undefined property %s::%s"
    (Hhbc.Repo.cls t.repo cid).Hhbc.Class_def.name (Hhbc.Repo.name t.repo nid)

(* Acquire the pooled frame for the current depth, sized for [n_locals]
   zeroed locals; the operand stack keeps its grown capacity across calls. *)
let acquire_frame t n_locals =
  let idx = t.depth - 1 in
  if idx >= Array.length t.frames then begin
    let len = Array.length t.frames in
    let grown =
      Array.init (max 16 (2 * (idx + 1))) (fun i ->
          if i < len then t.frames.(i)
          else { locals = Array.make 8 V.Null; stack = stack_make () })
    in
    t.frames <- grown
  end;
  let fr = t.frames.(idx) in
  let n = max 1 n_locals in
  if Array.length fr.locals < n then begin
    fr.locals <- Array.make n V.Null;
    t.stats.frame_allocs <- t.stats.frame_allocs + 1
  end
  else begin
    Array.fill fr.locals 0 n V.Null;
    t.stats.frame_reuses <- t.stats.frame_reuses + 1
  end;
  fr.stack.sp <- 0;
  fr

(* --- profiling: the loops' probe points ---

   [probe_enter] runs once an activation has passed the arity and depth
   checks, [probe_exit] on its normal or error exit; the others where the
   loops cross a block boundary, make a call or touch a property.  Tier 1
   bumps the counters resolved in [slots1]; tier 2 replays the activation
   in its translation, so the loop itself knows which vasm block runs.
   The common case of each probe is inline; a counter's first event
   (resolution) is out of line. *)

let grow_acts t idx =
  let len = Array.length t.acts in
  t.acts <- Array.init (max 16 (2 * (idx + 1))) (fun i -> if i < len then t.acts.(i) else new_act ())

let[@inline] acquire_act t =
  let idx = t.depth - 1 in
  if idx >= Array.length t.acts then grow_acts t idx;
  t.acts.(idx)

let resolve_slots1 t (r : Probes.tier1) fid =
  let fc = r.func fid in
  let n_blocks = Array.length fc.blocks in
  let s =
    {
      blocks = fc.blocks;
      entries = fc.entries;
      arc_dst = Array.make (2 * n_blocks) (-1);
      arc_cell = Array.make (2 * n_blocks) no_cell;
      calls = Array.make (Array.length (Hhbc.Repo.func t.repo fid).Hhbc.Func.body) [||];
    }
  in
  t.slots1.(fid) <- s;
  s

let[@inline] slots1 t r fid =
  let s = t.slots1.(fid) in
  if s != no_slots1 then s else resolve_slots1 t r fid

(* an arc seen for the first time from this engine: resolve its counter,
   and cache it in a free slot of the source block *)
let t1_arc_miss (r : Probes.tier1) act ~prev bb =
  let s = act.s1 in
  let j = 2 * prev in
  let c = r.arc act.afid ~src:prev ~dst:bb in
  incr c;
  let k = if s.arc_dst.(j) < 0 then j else if s.arc_dst.(j + 1) < 0 then j + 1 else -1 in
  if k >= 0 then begin
    s.arc_dst.(k) <- bb;
    s.arc_cell.(k) <- c
  end

let t1_call_miss (r : Probes.tier1) act ~site ~callee =
  let s = act.s1 in
  let c = r.call ~caller:act.afid ~site ~callee in
  s.calls.(site) <- Array.append s.calls.(site) [| c |];
  incr c.at_site;
  incr c.in_graph

let t1_prop_miss t (r : Probes.tier1) cid nid ~slot =
  if cid >= Array.length t.prop_cells then begin
    let n = Array.length t.prop_cells in
    t.prop_cells <-
      Array.init (max (cid + 1) (Hhbc.Repo.n_classes t.repo)) (fun i -> if i < n then t.prop_cells.(i) else [||])
  end;
  let c = r.prop cid nid in
  incr c;
  let cells = t.prop_cells.(cid) in
  if slot >= Array.length cells then begin
    let grown = Array.make (slot + 1) no_cell in
    Array.blit cells 0 grown 0 (Array.length cells);
    t.prop_cells.(cid) <- grown
  end;
  t.prop_cells.(cid).(slot) <- c

let resolve_slots2 t (r : Probes.tier2) fid =
  let s =
    {
      own = (match r.lookup fid with Some tr -> tr | None -> untranslated);
      pics = Array.make (pic_entries * Array.length (Hhbc.Repo.func t.repo fid).Hhbc.Func.body) (-1);
      entry = no_cell;
      callers = [||];
      edges = [||];
    }
  in
  t.slots2.(fid) <- s;
  s

let[@inline] slots2 t r fid =
  let s = t.slots2.(fid) in
  if s != no_slots2 then s else resolve_slots2 t r fid

(* [a.(i)], or -1 outside [a] *)
let cell (a : int array) i = if i >= 0 && i < Array.length a then Array.unsafe_get a i else -1

(* A [Count] sink's block counts are resolved on the translation's first
   block, its arc store on its first arc; an arc always follows a block of
   its translation, since its source is the activation's last block. *)
let count_resolve (tr : Probes.translation) counts =
  tr.counts <- counts ();
  tr.arc_cache <- Array.make (2 * arc_ways * Array.length tr.counts) (-1)

(* an arc missing from its source block's cached (destination, slot)
   pairs: find or add its slot, and cache it in a free pair *)
let arc_miss (tr : Probes.translation) arcs ~src ~dst =
  if tr.arcs == Probes.no_arcs then tr.arcs <- arcs ();
  let slot = Probes.arc_slot tr.arcs ~src ~dst in
  let c = tr.arc_cache and j = 2 * arc_ways * src in
  let k = ref 0 in
  while !k < arc_ways && c.(j + (2 * !k)) >= 0 do
    incr k
  done;
  if !k < arc_ways then begin
    c.(j + (2 * !k)) <- dst;
    c.(j + (2 * !k) + 1) <- slot
  end;
  slot

let[@inline] count_arc (tr : Probes.translation) arcs ~src ~dst =
  let c = tr.arc_cache and j = 2 * arc_ways * src in
  let slot =
    if c.(j) = dst then c.(j + 1)
    else begin
      let k = ref 1 in
      while !k < arc_ways && c.(j + (2 * !k)) <> dst do
        incr k
      done;
      if !k < arc_ways then c.(j + (2 * !k) + 1) else arc_miss tr arcs ~src ~dst
    end
  in
  let a = tr.arcs.count in
  a.(slot) <- a.(slot) +. 1.

(* vasm block [blk] of [tr] runs after [last] (-1: none); inlined into
   the block probe *)
let[@inline] vstep (tr : Probes.translation) ~last blk =
  match tr.sink with
  | Probes.Count c ->
    if Array.length tr.counts = 0 then count_resolve tr c.counts;
    if last >= 0 then count_arc tr c.arcs ~src:last ~dst:blk;
    tr.counts.(blk) <- tr.counts.(blk) +. 1.
  | Probes.Emit e ->
    if last >= 0 then e.on_varc ~src:last ~dst:blk;
    e.on_vblock blk

(* [true] when [callee] misses the site's inline cache; a hit on a free
   entry installs it. *)
let pic_miss pics ~site ~callee =
  let base = site * pic_entries in
  let i = ref 0 in
  while !i < pic_entries && pics.(base + !i) >= 0 && pics.(base + !i) <> callee do
    incr i
  done;
  if !i = pic_entries then true
  else begin
    pics.(base + !i) <- callee;
    false
  end

let xcall (x : Probes.xcalls) s2 ~caller ~callee =
  if s2.entry == no_cell then s2.entry <- x.entry callee;
  incr s2.entry;
  if caller >= 0 then begin
    let cs = s2.callers in
    let i = ref 0 in
    while !i < Array.length cs && cs.(!i) <> caller do
      incr i
    done;
    if !i < Array.length cs then incr s2.edges.(!i)
    else begin
      let e = x.edge ~caller ~callee in
      s2.callers <- Array.append cs [| caller |];
      s2.edges <- Array.append s2.edges [| e |];
      incr e
    end
  end

(* An activation record is long-lived, so each write of a pointer field
   is a GC write barrier; write only what changes. *)
let[@inline] set_tr act tr main =
  if act.tr != tr then act.tr <- tr;
  if act.main != main then act.main <- main

(* Out-of-line entry: the activation runs in the function's own
   translation, if any.  [caller] is the calling translation's root, the
   calling function when it runs untranslated, or -1 for a request. *)
let t2_own (r : Probes.tier2) act s2 ~caller =
  (match r.xcalls with Some x -> xcall x s2 ~caller ~callee:act.afid | None -> ());
  let own = s2.own in
  set_tr act own (if own == untranslated then [||] else own.main.(0));
  act.node <- 0;
  act.inlined <- false;
  act.last <- -1

(* A call from activation [c] enters [act]: inlined when [c]'s translation
   inlined this callee at the site; otherwise out of line, after the
   site's slow path when the inline guard fails or the callee misses the
   site's inline cache. *)
let t2_enter t (r : Probes.tier2) act =
  let s2 = slots2 t r act.afid in
  if t.depth < 2 then t2_own r act s2 ~caller:(-1)
  else begin
    let c = t.acts.(t.depth - 2) in
    let tr = c.tr in
    if tr == untranslated then t2_own r act s2 ~caller:c.afid
    else begin
      let child = cell tr.child.(c.node) c.site in
      if child >= 0 && tr.node_fid.(child) = act.afid then begin
        set_tr act tr tr.main.(child);
        act.node <- child;
        act.inlined <- true;
        act.parent_last <- c.last;
        act.last <- c.last
      end
      else begin
        if child >= 0 || (c.msite && pic_miss t.slots2.(c.afid).pics ~site:c.site ~callee:act.afid)
        then begin
          let slow = cell tr.slow.(c.node) c.site in
          if slow >= 0 then begin
            vstep tr ~last:c.last slow;
            c.last <- slow
          end
        end;
        t2_own r act s2 ~caller:tr.root
      end
    end
  end

(* An inlined activation returns into its caller's current block. *)
let t2_exit act =
  if act.inlined && act.last >= 0 && act.parent_last >= 0 && act.parent_last <> act.last then
    match act.tr.sink with
    | Probes.Count c -> count_arc act.tr c.arcs ~src:act.last ~dst:act.parent_last
    | Probes.Emit e -> e.on_varc ~src:act.last ~dst:act.parent_last

let probe_enter t fid =
  match t.probes with
  | Probes.Off -> no_act
  | probes ->
    let act = acquire_act t in
    act.afid <- fid;
    (match probes with
    | Probes.Off -> ()
    | Probes.Events e -> e.on_func_entry fid
    | Probes.Tier1 r ->
      let s = slots1 t r fid in
      if act.s1 != s then act.s1 <- s;
      incr s.entries;
      incr r.total_entries
    | Probes.Tier2 r -> t2_enter t r act);
    act

(* inlined into both loops: it runs on every block entry *)
let[@inline] probe_block t act ~prev bb =
  match t.probes with
  | Probes.Tier1 r ->
    let s = act.s1 in
    if prev >= 0 then begin
      let j = 2 * prev in
      if s.arc_dst.(j) = bb then incr s.arc_cell.(j)
      else if s.arc_dst.(j + 1) = bb then incr s.arc_cell.(j + 1)
      else t1_arc_miss r act ~prev bb
    end;
    s.blocks.(bb) <- s.blocks.(bb) + 1
  | Probes.Tier2 _ ->
    let blk = cell act.main bb in
    if blk >= 0 then begin
      vstep act.tr ~last:act.last blk;
      act.last <- blk
    end
  | Probes.Events e ->
    if prev >= 0 then e.on_arc act.afid ~src:prev ~dst:bb;
    e.on_block act.afid bb
  | Probes.Off -> ()

let probe_call t act ~site ~msite ~callee =
  match t.probes with
  | Probes.Tier1 r ->
    let cs = act.s1.calls.(site) in
    let i = ref 0 in
    while !i < Array.length cs && cs.(!i).Probes.callee <> callee do
      incr i
    done;
    if !i < Array.length cs then begin
      let c = cs.(!i) in
      incr c.at_site;
      incr c.in_graph
    end
    else t1_call_miss r act ~site ~callee
  | Probes.Tier2 _ ->
    act.site <- site;
    act.msite <- msite
  | Probes.Events e -> e.on_call ~caller:act.afid ~site ~callee
  | Probes.Off -> ()

(* [slot] is the property's physical slot, or -1 when the loop does not
   know it (the reference loop), which resolves the counter every time;
   [addr] is read only when [t.prop_addrs]. *)
let probe_prop t cid nid ~slot ~addr ~write =
  match t.probes with
  | Probes.Tier1 r ->
    if slot < 0 then incr (r.prop cid nid)
    else begin
      let c =
        if cid < Array.length t.prop_cells && slot < Array.length t.prop_cells.(cid) then
          t.prop_cells.(cid).(slot)
        else no_cell
      in
      if c != no_cell then incr c else t1_prop_miss t r cid nid ~slot
    end
  | Probes.Tier2 { on_prop = Some f; _ } -> f ~addr ~write
  | Probes.Tier2 { on_prop = None; _ } | Probes.Off -> ()
  | Probes.Events e -> e.on_prop_access cid nid ~addr ~write

(* an access to the property at physical [slot] of object [handle] *)
let probe_slot t cid nid handle slot ~write =
  probe_prop t cid nid ~slot
    ~addr:(if t.prop_addrs then Mh_runtime.Heap.slot_addr t.heap handle slot else 0)
    ~write

let probe_exit t act =
  match t.probes with
  | Probes.Off | Probes.Tier1 _ -> ()
  | Probes.Events e -> e.on_func_exit act.afid
  | Probes.Tier2 _ -> t2_exit act

let rec exec_func t fid ~this args =
  let f = Hhbc.Repo.func t.repo fid in
  if Array.length args <> f.Hhbc.Func.n_params then
    error "function %s expects %d arguments, got %d" f.Hhbc.Func.name f.Hhbc.Func.n_params
      (Array.length args);
  t.depth <- t.depth + 1;
  if t.depth > max_depth then begin
    t.depth <- t.depth - 1;
    error "call stack overflow (depth > %d)" max_depth
  end;
  let act = probe_enter t fid in
  let locals = Array.make (max 1 f.Hhbc.Func.n_locals) V.Null in
  Array.blit args 0 locals 0 (Array.length args);
  let st = stack_make () in
  let body = f.Hhbc.Func.body in
  let bmap = block_map t fid in
  let result = ref V.Null in
  let pc = ref 0 in
  let prev_block = ref (-1) in
  (* set when a taken backward jump re-enters a block, so self-loop arcs and
     re-executions of the same block still fire the probes *)
  let refire = ref false in
  (try
     let running = ref true in
     while !running do
       let i = !pc in
       (* fire the block probes on every block boundary crossing *)
       let bb = bmap.(i) in
       if bb <> !prev_block || !refire then begin
         probe_block t act ~prev:!prev_block bb;
         prev_block := bb;
         refire := false
       end;
       if t.fuel <= 0 then error "interpreter fuel exhausted";
       t.fuel <- t.fuel - 1;
       pc := i + 1;
       (match body.(i) with
       | I.Nop -> ()
       | I.LitInt n -> push st (V.Int n)
       | I.LitFloat f -> push st (V.Float f)
       | I.LitBool b -> push st (V.Bool b)
       | I.LitNull -> push st V.Null
       | I.LitStr sid -> push st (V.Str (Hhbc.Repo.string t.repo sid))
       | I.LitArr aid -> push st (V.Vec (ref (Array.copy (Hhbc.Repo.static_array t.repo aid))))
       | I.LoadLoc l -> push st locals.(l)
       | I.StoreLoc l -> locals.(l) <- pop st
       | I.Pop -> ignore (pop st)
       | I.Dup ->
         let v = pop st in
         push st v;
         push st v
       | I.BinOp op ->
         let b = pop st in
         let a = pop st in
         push st (Hhbc.Ops.binop op a b)
       | I.UnOp op -> push st (Hhbc.Ops.unop op (pop st))
       | I.Jmp target -> pc := target
       | I.JmpZ target -> if not (V.truthy (pop st)) then pc := target
       | I.JmpNZ target -> if V.truthy (pop st) then pc := target
       | I.Call (callee, n) ->
         let args = pop_n st n in
         probe_call t act ~site:i ~msite:false ~callee;
         push st (exec_func t callee ~this:None args)
       | I.CallMethod (nid, n) ->
         let args = pop_n st n in
         let recv = pop st in
         (match recv with
         | V.Obj handle -> (
           let cid = Mh_runtime.Heap.class_of t.heap handle in
           match Hhbc.Repo.resolve_method t.repo cid nid with
           | None ->
             error "call to undefined method %s::%s"
               (Hhbc.Repo.cls t.repo cid).Hhbc.Class_def.name (Hhbc.Repo.name t.repo nid)
           | Some callee ->
             probe_call t act ~site:i ~msite:true ~callee;
             push st (exec_func t callee ~this:(Some handle) args))
         | v -> error "method call on non-object (%s)" (V.tag_to_string (V.tag v)))
       | I.New (cid, n) ->
         let args = pop_n st n in
         let handle = Mh_runtime.Heap.alloc t.heap cid in
         (* constructor ids are hoisted into the repo at load time; no
            per-allocation name lookup or hierarchy walk *)
         (match Hhbc.Repo.ctor_of t.repo cid with
         | Some ctor ->
           probe_call t act ~site:i ~msite:true ~callee:ctor;
           ignore (exec_func t ctor ~this:(Some handle) args)
         | None ->
           if n > 0 then
             error "class %s has no constructor but %d arguments were given"
               (Hhbc.Repo.cls t.repo cid).Hhbc.Class_def.name n);
         push st (V.Obj handle)
       | I.GetThis -> (
         match this with
         | Some handle -> push st (V.Obj handle)
         | None -> error "$this used outside of a method call")
       | I.GetProp nid -> (
         match pop st with
         | V.Obj handle ->
           let addr = heap_op (fun () -> Mh_runtime.Heap.prop_addr t.heap handle nid) in
           if t.prop_probes then
             probe_prop t (Mh_runtime.Heap.class_of t.heap handle) nid ~slot:(-1) ~addr ~write:false;
           push st (heap_op (fun () -> Mh_runtime.Heap.get_prop t.heap handle nid))
         | v -> error "property access on non-object (%s)" (V.tag_to_string (V.tag v)))
       | I.SetProp nid -> (
         let v = pop st in
         match pop st with
         | V.Obj handle ->
           let addr = heap_op (fun () -> Mh_runtime.Heap.prop_addr t.heap handle nid) in
           if t.prop_probes then
             probe_prop t (Mh_runtime.Heap.class_of t.heap handle) nid ~slot:(-1) ~addr ~write:true;
           heap_op (fun () -> Mh_runtime.Heap.set_prop t.heap handle nid v)
         | r -> error "property write on non-object (%s)" (V.tag_to_string (V.tag r)))
       | I.NewVec n -> push st (V.Vec (ref (pop_n st n)))
       | I.VecGet ->
         let key = pop st in
         let base = pop st in
         push st (container_get t base key)
       | I.VecSet ->
         let v = pop st in
         let key = pop st in
         let base = pop st in
         container_set base key v
       | I.VecPush -> (
         let v = pop st in
         match pop st with
         | V.Vec a -> a := Array.append !a [| v |]
         | b -> error "push into non-vec (%s)" (V.tag_to_string (V.tag b)))
       | I.VecLen -> push st (vec_len (pop st))
       | I.NewDict n ->
         let kvs = pop_n st (2 * n) in
         let d = Hashtbl.create (max 4 n) in
         for k = 0 to n - 1 do
           Hashtbl.replace d (V.to_string kvs.(2 * k)) kvs.((2 * k) + 1)
         done;
         push st (V.Dict d)
       (* dict ops convert the key to its string form exactly once per op
          and use that one string for lookup, membership and write alike *)
       | I.DictGet -> (
         let key = pop st in
         match pop st with
         | V.Dict d ->
           let k = V.to_string key in
           push st (match Hashtbl.find_opt d k with Some v -> v | None -> V.Null)
         | b -> error "DictGet on non-dict (%s)" (V.tag_to_string (V.tag b)))
       | I.DictSet -> (
         let v = pop st in
         let key = pop st in
         match pop st with
         | V.Dict d ->
           let k = V.to_string key in
           Hashtbl.replace d k v
         | b -> error "DictSet on non-dict (%s)" (V.tag_to_string (V.tag b)))
       | I.DictHas -> (
         let key = pop st in
         match pop st with
         | V.Dict d ->
           let k = V.to_string key in
           push st (V.Bool (Hashtbl.mem d k))
         | b -> error "has() on non-dict (%s)" (V.tag_to_string (V.tag b)))
       | I.InstanceOf cid -> (
         match pop st with
         | V.Obj handle ->
           let actual = Mh_runtime.Heap.class_of t.heap handle in
           push st (V.Bool (Hhbc.Repo.is_ancestor t.repo ~ancestor:cid ~cls:actual))
         | _ -> push st (V.Bool false))
       | I.Cast tag -> push st (Hhbc.Ops.cast tag (pop st))
       | I.Print -> Buffer.add_string t.out (V.to_string (pop st))
       | I.Ret ->
         result := pop st;
         running := false);
       (* taken backward jumps re-enter a block; reset so the probe fires *)
       if !pc < i then refire := true
     done
   with e ->
     t.depth <- t.depth - 1;
     probe_exit t act;
     raise e);
  t.depth <- t.depth - 1;
  probe_exit t act;
  !result

(* One source instruction's fuel, spent before it runs: the instruction
   that would exhaust the fuel does not run and is not counted, one that
   errors after passing the check is.  The translated loop's header and
   each further component of a fused form charge through this, in source
   order, so every fuel level truncates execution where the reference
   loop's own check does. *)
let[@inline] charge t =
  if t.fuel <= 0 then error "interpreter fuel exhausted";
  t.fuel <- t.fuel - 1

(* A property read off a known object, through the site cache at [pc]. *)
let getprop_obj t site_arr pc handle nid =
  let cid = Mh_runtime.Heap.class_of t.heap handle in
  match resolve_slot_cached t site_arr pc cid nid with
  | None -> undefined_prop t cid nid
  | Some slot ->
    if t.prop_probes then probe_slot t cid nid handle slot ~write:false;
    Mh_runtime.Heap.get_slot t.heap handle slot

(* The cached execution loop.  Semantically identical to [exec_func] (same
   results, same probe streams, same fuel spent at every observable point),
   restructured for speed:

   - runs each basic block as a straight line using the precomputed
     [block_limits] bound, so block-boundary probing happens once per block
     entry instead of once per instruction;
   - dispatches CallMethod through the per-site method cache, GetProp/SetProp
     through the per-site slot cache plus the heap's direct slot fast path;
   - reuses pooled call frames (locals + operand stack) per call depth.

   When the engine has no probes attached, the probe points are skipped
   entirely.  An activation allocates no closure. *)
let rec exec_fast t fid ~this args =
  let f = Hhbc.Repo.func t.repo fid in
  if Array.length args <> f.Hhbc.Func.n_params then
    error "function %s expects %d arguments, got %d" f.Hhbc.Func.name f.Hhbc.Func.n_params
      (Array.length args);
  t.depth <- t.depth + 1;
  if t.depth > max_depth then begin
    t.depth <- t.depth - 1;
    error "call stack overflow (depth > %d)" max_depth
  end;
  let has_probes = t.profiled in
  let act = probe_enter t fid in
  let fr = acquire_frame t f.Hhbc.Func.n_locals in
  let locals = fr.locals in
  Array.blit args 0 locals 0 (Array.length args);
  let st = fr.stack in
  let tcode = translate t fid in
  let bmap = block_map t fid in
  let blim = block_limit t fid in
  let site_arr = sites t fid (Array.length tcode) in
  let result = ref V.Null in
  let pc = ref 0 in
  let prev_block = ref (-1) in
  let refire = ref false in
  (try
     let running = ref true in
     while !running do
       let bstart = !pc in
       if has_probes then begin
         let bb = bmap.(bstart) in
         if bb <> !prev_block || !refire then begin
           probe_block t act ~prev:!prev_block bb;
           prev_block := bb;
           refire := false
         end
       end;
       let limit = blim.(bstart) in
       (* straight-line run to the block's end; [br] breaks out on a taken
          jump so the next block entry goes through the probe check *)
       let br = ref false in
       while (not !br) && !running && !pc < limit do
         let i = !pc in
         charge t;
         pc := i + 1;
         match tcode.(i) with
         | TNop -> ()
         | TPush v -> push st v
         | TLitArr arr -> push st (V.Vec (ref (Array.copy arr)))
         | TLoadLoc l -> push st locals.(l)
         | TStoreLoc l -> locals.(l) <- pop st
         | TPop -> ignore (pop st)
         | TDup ->
           let v = pop st in
           push st v;
           push st v
         | TBinOp op ->
           let b = pop st in
           let a = pop st in
           push st (binop_fast op a b)
         | TUnOp op -> push st (Hhbc.Ops.unop op (pop st))
         | TJmp target ->
           pc := target;
           if target < i then refire := true;
           br := true
         | TJmpZ target ->
           if not (V.truthy (pop st)) then begin
             pc := target;
             if target < i then refire := true;
             br := true
           end
         | TJmpNZ target ->
           if V.truthy (pop st) then begin
             pc := target;
             if target < i then refire := true;
             br := true
           end
         | TCall (callee, n) ->
           let args = pop_n st n in
           if has_probes then probe_call t act ~site:i ~msite:false ~callee;
           push st (exec_fast t callee ~this:None args)
         | TCallMethod (nid, n) ->
           let args = pop_n st n in
           let recv = pop st in
           (match recv with
           | V.Obj handle -> (
             let cid = Mh_runtime.Heap.class_of t.heap handle in
             match resolve_method_cached t site_arr i cid nid with
             | None ->
               error "call to undefined method %s::%s"
                 (Hhbc.Repo.cls t.repo cid).Hhbc.Class_def.name (Hhbc.Repo.name t.repo nid)
             | Some callee ->
               if has_probes then probe_call t act ~site:i ~msite:true ~callee;
               push st (exec_fast t callee ~this:(Some handle) args))
           | v -> error "method call on non-object (%s)" (V.tag_to_string (V.tag v)))
         | TNew (cid, n) ->
           let args = pop_n st n in
           let handle = Mh_runtime.Heap.alloc t.heap cid in
           (match Hhbc.Repo.ctor_of t.repo cid with
           | Some ctor ->
             if has_probes then probe_call t act ~site:i ~msite:true ~callee:ctor;
             ignore (exec_fast t ctor ~this:(Some handle) args)
           | None ->
             if n > 0 then
               error "class %s has no constructor but %d arguments were given"
                 (Hhbc.Repo.cls t.repo cid).Hhbc.Class_def.name n);
           push st (V.Obj handle)
         | TGetThis -> (
           match this with
           | Some handle -> push st (V.Obj handle)
           | None -> error "$this used outside of a method call")
         | TGetProp nid -> (
           match pop st with
           | V.Obj handle -> push st (getprop_obj t site_arr i handle nid)
           | v -> error "property access on non-object (%s)" (V.tag_to_string (V.tag v)))
         | TSetProp nid -> (
           let v = pop st in
           match pop st with
           | V.Obj handle -> (
             let cid = Mh_runtime.Heap.class_of t.heap handle in
             match resolve_slot_cached t site_arr i cid nid with
             | None -> undefined_prop t cid nid
             | Some slot ->
               if t.prop_probes then probe_slot t cid nid handle slot ~write:true;
               Mh_runtime.Heap.set_slot t.heap handle slot v)
           | r -> error "property write on non-object (%s)" (V.tag_to_string (V.tag r)))
         | TNewVec n -> push st (V.Vec (ref (pop_n st n)))
         | TVecGet ->
           let key = pop st in
           let base = pop st in
           push st (container_get t base key)
         | TVecSet ->
           let v = pop st in
           let key = pop st in
           let base = pop st in
           container_set base key v
         | TVecPush -> (
           let v = pop st in
           match pop st with
           | V.Vec a -> a := Array.append !a [| v |]
           | b -> error "push into non-vec (%s)" (V.tag_to_string (V.tag b)))
         | TVecLen -> push st (vec_len (pop st))
         | TNewDict n ->
           let kvs = pop_n st (2 * n) in
           let d = Hashtbl.create (max 4 n) in
           for k = 0 to n - 1 do
             Hashtbl.replace d (V.to_string kvs.(2 * k)) kvs.((2 * k) + 1)
           done;
           push st (V.Dict d)
         | TDictGet -> (
           let key = pop st in
           match pop st with
           | V.Dict d ->
             let k = V.to_string key in
             push st (match Hashtbl.find_opt d k with Some v -> v | None -> V.Null)
           | b -> error "DictGet on non-dict (%s)" (V.tag_to_string (V.tag b)))
         | TDictSet -> (
           let v = pop st in
           let key = pop st in
           match pop st with
           | V.Dict d ->
             let k = V.to_string key in
             Hashtbl.replace d k v
           | b -> error "DictSet on non-dict (%s)" (V.tag_to_string (V.tag b)))
         | TDictHas -> (
           let key = pop st in
           match pop st with
           | V.Dict d ->
             let k = V.to_string key in
             push st (V.Bool (Hashtbl.mem d k))
           | b -> error "has() on non-dict (%s)" (V.tag_to_string (V.tag b)))
         | TInstanceOf cid -> (
           match pop st with
           | V.Obj handle ->
             let actual = Mh_runtime.Heap.class_of t.heap handle in
             push st (V.Bool (Hhbc.Repo.is_ancestor t.repo ~ancestor:cid ~cls:actual))
           | _ -> push st (V.Bool false))
         | TCast tag -> push st (Hhbc.Ops.cast tag (pop st))
         | TPrint -> Buffer.add_string t.out (V.to_string (pop st))
         | TRet ->
           result := pop st;
           running := false
         (* --- superinstructions ---
            The header above charged the first component; each arm charges
            every further one just before it would run, so a component
            that errors is counted and the one the fuel cannot cover is
            not, step for step as in the reference loop. *)
         | TLVB (a, v, op) ->
           charge t;
           charge t;
           pc := i + 3;
           push st (binop_fast op locals.(a) v)
         | TLVBS (a, v, op, c) ->
           charge t;
           charge t;
           let r = binop_fast op locals.(a) v in
           charge t;
           pc := i + 4;
           locals.(c) <- r
         | TLVBZ (a, v, op, target) ->
           charge t;
           charge t;
           let r = binop_fast op locals.(a) v in
           charge t;
           pc := i + 4;
           if not (V.truthy r) then begin
             pc := target;
             (* the JmpZ lives at i + 3 *)
             if target < i + 3 then refire := true;
             br := true
           end
         | TLRet a ->
           charge t;
           result := locals.(a);
           running := false
         | TVB (v, op) ->
           charge t;
           let a = pop st in
           pc := i + 2;
           push st (binop_fast op a v)
         | TBS (op, d) ->
           let b = pop st in
           let a = pop st in
           let r = binop_fast op a b in
           charge t;
           pc := i + 2;
           locals.(d) <- r
         | TBR op ->
           let b = pop st in
           let a = pop st in
           let r = binop_fast op a b in
           charge t;
           result := r;
           running := false
         | TVBS (v, op, d) ->
           charge t;
           let a = pop st in
           let r = binop_fast op a v in
           charge t;
           pc := i + 3;
           locals.(d) <- r
         | TVBZ (v, op, target) ->
           charge t;
           let a = pop st in
           let r = binop_fast op a v in
           charge t;
           pc := i + 3;
           if not (V.truthy r) then begin
             pc := target;
             (* the JmpZ lives at i + 2 *)
             if target < i + 2 then refire := true;
             br := true
           end
         | TLVBR (a, v, op) ->
           charge t;
           charge t;
           let r = binop_fast op locals.(a) v in
           charge t;
           result := r;
           running := false
         | TLLGPBS (a, o, p, op, d) -> (
           charge t;
           charge t;
           match locals.(o) with
           | V.Obj handle ->
             let pv = getprop_obj t site_arr (i + 2) handle p in
             charge t;
             let r = binop_fast op locals.(a) pv in
             charge t;
             pc := i + 5;
             locals.(d) <- r
           | v -> error "property access on non-object (%s)" (V.tag_to_string (V.tag v)))
         | TLLGPBLBS (a, o, p, op1, c, op2, d) -> (
           charge t;
           charge t;
           match locals.(o) with
           | V.Obj handle ->
             let pv = getprop_obj t site_arr (i + 2) handle p in
             charge t;
             let r1 = binop_fast op1 locals.(a) pv in
             charge t;
             charge t;
             let r2 = binop_fast op2 r1 locals.(c) in
             charge t;
             pc := i + 7;
             locals.(d) <- r2
           | v -> error "property access on non-object (%s)" (V.tag_to_string (V.tag v)))
         | TGTGPLVBBS (p, x, v, op1, op2, d) -> (
           match this with
           | None -> error "$this used outside of a method call"
           | Some handle ->
             charge t;
             let pv = getprop_obj t site_arr (i + 1) handle p in
             charge t;
             charge t;
             charge t;
             let r1 = binop_fast op1 locals.(x) v in
             charge t;
             let r2 = binop_fast op2 pv r1 in
             charge t;
             pc := i + 7;
             locals.(d) <- r2)
         | TLGTGPVBBR (a, p, v, op1, op2) -> (
           charge t;
           match this with
           | None -> error "$this used outside of a method call"
           | Some handle ->
             charge t;
             let pv = getprop_obj t site_arr (i + 2) handle p in
             charge t;
             charge t;
             let r1 = binop_fast op1 pv v in
             charge t;
             let r2 = binop_fast op2 locals.(a) r1 in
             charge t;
             result := r2;
             running := false)
       done
     done
   with e ->
     t.depth <- t.depth - 1;
     if has_probes then probe_exit t act;
     raise e);
  t.depth <- t.depth - 1;
  if has_probes then probe_exit t act;
  !result

let call t fid args =
  let args = Array.of_list args in
  if t.translated then exec_fast t fid ~this:None args else exec_func t fid ~this:None args

let run_main t =
  match Hhbc.Repo.find_func_by_name t.repo "main" with
  | Some f -> call t f.Hhbc.Func.id []
  | None -> (
    let rec scan i =
      if i >= Hhbc.Repo.n_units t.repo then None
      else
        match (Hhbc.Repo.unit_of t.repo i).Hhbc.Unit_def.main with
        | Some fid -> Some fid
        | None -> scan (i + 1)
    in
    match scan 0 with
    | Some fid -> call t fid []
    | None -> error "no entry point: no function named 'main'")
