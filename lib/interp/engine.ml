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
   dispatch once while charging the exact per-instruction step/fuel costs of
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
     S = StoreLoc, Z = JmpZ); each counts as the w source instructions it
     replaces.  A form is kept only while a measured input (the benchmark
     apps, the perf macro mix, fib) executes it; DESIGN §3 has the counts. *)
  | TLVB of int * V.t * I.binop  (* local op lit;   w = 3 *)
  | TLVBS of int * V.t * I.binop * int  (* c := a op lit; w = 4 *)
  | TLVBZ of int * V.t * I.binop * int  (* if !(a op lit) jmp; w = 4 *)
  | TLRet of int  (* return local; w = 2 *)
  (* wide forms, charged per component; G = GetProp, T = GetThis, R = Ret *)
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

type t = {
  repo : Hhbc.Repo.t;
  heap : Mh_runtime.Heap.t;
  probes : Probes.t;
  out : Buffer.t;
  mutable fuel : int;
  mutable steps : int;
  func_steps : int array;
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
  let t =
    {
      repo;
      heap;
      probes;
      out = Buffer.create 256;
      fuel;
      steps = 0;
      func_steps = Array.make (Hhbc.Repo.n_funcs repo) 0;
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
let steps t = t.steps
let func_steps t = t.func_steps
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
  t.probes.Probes.on_func_entry fid;
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
         if !prev_block >= 0 then t.probes.Probes.on_arc fid ~src:!prev_block ~dst:bb;
         t.probes.Probes.on_block fid bb;
         prev_block := bb;
         refire := false
       end;
       if t.fuel <= 0 then error "interpreter fuel exhausted";
       t.fuel <- t.fuel - 1;
       t.steps <- t.steps + 1;
       t.func_steps.(fid) <- t.func_steps.(fid) + 1;
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
         t.probes.Probes.on_call ~caller:fid ~site:i ~callee;
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
             t.probes.Probes.on_call ~caller:fid ~site:i ~callee;
             push st (exec_func t callee ~this:(Some handle) args))
         | v -> error "method call on non-object (%s)" (V.tag_to_string (V.tag v)))
       | I.New (cid, n) ->
         let args = pop_n st n in
         let handle = Mh_runtime.Heap.alloc t.heap cid in
         (* constructor ids are hoisted into the repo at load time; no
            per-allocation name lookup or hierarchy walk *)
         (match Hhbc.Repo.ctor_of t.repo cid with
         | Some ctor ->
           t.probes.Probes.on_call ~caller:fid ~site:i ~callee:ctor;
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
           t.probes.Probes.on_prop_access
             (Mh_runtime.Heap.class_of t.heap handle)
             nid
             ~addr:(heap_op (fun () -> Mh_runtime.Heap.prop_addr t.heap handle nid))
             ~write:false;
           push st (heap_op (fun () -> Mh_runtime.Heap.get_prop t.heap handle nid))
         | v -> error "property access on non-object (%s)" (V.tag_to_string (V.tag v)))
       | I.SetProp nid -> (
         let v = pop st in
         match pop st with
         | V.Obj handle ->
           t.probes.Probes.on_prop_access
             (Mh_runtime.Heap.class_of t.heap handle)
             nid
             ~addr:(heap_op (fun () -> Mh_runtime.Heap.prop_addr t.heap handle nid))
             ~write:true;
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
     t.probes.Probes.on_func_exit fid;
     raise e);
  t.depth <- t.depth - 1;
  t.probes.Probes.on_func_exit fid;
  !result

(* The cached execution loop.  Semantically identical to [exec_func] (same
   results, same probe streams, same step/fuel accounting at every observable
   point), restructured for speed:

   - runs each basic block as a straight line using the precomputed
     [block_limits] bound, so block-boundary probing happens once per block
     entry instead of once per instruction;
   - batches fuel/step accounting in locals ([rem] = fuel snapshot, [acc] =
     instructions since last flush) and flushes to the engine fields before
     anything that can observe them: probe callbacks, recursive calls, errors
     and function exit.  The erroring instruction is counted (it decremented
     [rem] before executing), the fuel-exhausting one is not (checked before
     the decrement) — exactly the seed loop's accounting;
   - dispatches CallMethod through the per-site method cache, GetProp/SetProp
     through the per-site slot cache plus the heap's direct slot fast path;
   - reuses pooled call frames (locals + operand stack) per call depth.

   When the engine has no probes attached, probe firing (a no-op stream) and
   the flushes that exist only to keep probe-visible state exact are skipped
   entirely. *)
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
  let has_probes = t.probes != Probes.none in
  if has_probes then t.probes.Probes.on_func_entry fid;
  let fr = acquire_frame t f.Hhbc.Func.n_locals in
  let locals = fr.locals in
  Array.blit args 0 locals 0 (Array.length args);
  let st = fr.stack in
  let tcode = translate t fid in
  let bmap = block_map t fid in
  let blim = block_limit t fid in
  let site_arr = sites t fid (Array.length tcode) in
  let result = ref V.Null in
  let rem = ref t.fuel in
  let acc = ref 0 in
  let flush () =
    t.fuel <- !rem;
    t.steps <- t.steps + !acc;
    t.func_steps.(fid) <- t.func_steps.(fid) + !acc;
    acc := 0
  in
  (* one source instruction's worth of fuel/step accounting, exactly the
     inner-loop header: the instruction that would exhaust the fuel is not
     counted, an instruction that errors after passing the check is.  The
     wide-form arms charge per component with this instead of the bulk
     charge + rollback the narrow superinstructions use. *)
  let charge1 () =
    if !rem <= 0 then begin
      flush ();
      error "interpreter fuel exhausted"
    end;
    rem := !rem - 1;
    acc := !acc + 1
  in
  (* property read off a known object, with the same site cache and
     flush-before-probe ordering as the 1:1 TGetProp arm *)
  let getprop_obj handle site nid =
    let cid = Mh_runtime.Heap.class_of t.heap handle in
    match resolve_slot_cached t site_arr site cid nid with
    | None -> undefined_prop t cid nid
    | Some slot ->
      if has_probes then begin
        flush ();
        t.probes.Probes.on_prop_access cid nid
          ~addr:(Mh_runtime.Heap.slot_addr t.heap handle slot)
          ~write:false
      end;
      Mh_runtime.Heap.get_slot t.heap handle slot
  in
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
           flush ();
           if !prev_block >= 0 then t.probes.Probes.on_arc fid ~src:!prev_block ~dst:bb;
           t.probes.Probes.on_block fid bb;
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
         if !rem <= 0 then begin
           flush ();
           error "interpreter fuel exhausted"
         end;
         rem := !rem - 1;
         acc := !acc + 1;
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
           flush ();
           if has_probes then t.probes.Probes.on_call ~caller:fid ~site:i ~callee;
           push st (exec_fast t callee ~this:None args);
           rem := t.fuel
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
               flush ();
               if has_probes then t.probes.Probes.on_call ~caller:fid ~site:i ~callee;
               push st (exec_fast t callee ~this:(Some handle) args);
               rem := t.fuel)
           | v -> error "method call on non-object (%s)" (V.tag_to_string (V.tag v)))
         | TNew (cid, n) ->
           let args = pop_n st n in
           let handle = Mh_runtime.Heap.alloc t.heap cid in
           (match Hhbc.Repo.ctor_of t.repo cid with
           | Some ctor ->
             flush ();
             if has_probes then t.probes.Probes.on_call ~caller:fid ~site:i ~callee:ctor;
             ignore (exec_fast t ctor ~this:(Some handle) args);
             rem := t.fuel
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
           | V.Obj handle -> (
             let cid = Mh_runtime.Heap.class_of t.heap handle in
             match resolve_slot_cached t site_arr i cid nid with
             | None -> undefined_prop t cid nid
             | Some slot ->
               if has_probes then begin
                 flush ();
                 t.probes.Probes.on_prop_access cid nid
                   ~addr:(Mh_runtime.Heap.slot_addr t.heap handle slot)
                   ~write:false
               end;
               push st (Mh_runtime.Heap.get_slot t.heap handle slot))
           | v -> error "property access on non-object (%s)" (V.tag_to_string (V.tag v)))
         | TSetProp nid -> (
           let v = pop st in
           match pop st with
           | V.Obj handle -> (
             let cid = Mh_runtime.Heap.class_of t.heap handle in
             match resolve_slot_cached t site_arr i cid nid with
             | None -> undefined_prop t cid nid
             | Some slot ->
               if has_probes then begin
                 flush ();
                 t.probes.Probes.on_prop_access cid nid
                   ~addr:(Mh_runtime.Heap.slot_addr t.heap handle slot)
                   ~write:true
               end;
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
            Each charges the exact step/fuel cost of the w source
            instructions it replaces.  The loop header above already consumed
            one unit for the first component, so an arm of width w needs
            w - 1 more; when fewer remain, it counts exactly the components
            the remaining fuel covers (running any binop that would have
            executed — and possibly raised — before the fuel ran out) and
            reports exhaustion, matching the uncached loop step for step. *)
         | TLVB (a, v, op) ->
           if !rem < 2 then begin
             acc := !acc + !rem;
             rem := 0;
             flush ();
             error "interpreter fuel exhausted"
           end;
           rem := !rem - 2;
           acc := !acc + 2;
           pc := i + 3;
           push st (binop_fast op locals.(a) v)
         | TLVBS (a, v, op, c) ->
           if !rem < 3 then begin
             if !rem = 2 then begin
               acc := !acc + 2;
               rem := 0;
               ignore (binop_fast op locals.(a) v)
             end
             else begin
               acc := !acc + !rem;
               rem := 0
             end;
             flush ();
             error "interpreter fuel exhausted"
           end;
           rem := !rem - 3;
           acc := !acc + 3;
           pc := i + 4;
           let r =
             try binop_fast op locals.(a) v
             with e ->
               (* the store after the raising binop never executed *)
               acc := !acc - 1;
               rem := !rem + 1;
               raise e
           in
           locals.(c) <- r
         | TLVBZ (a, v, op, target) ->
           if !rem < 3 then begin
             if !rem = 2 then begin
               acc := !acc + 2;
               rem := 0;
               ignore (binop_fast op locals.(a) v)
             end
             else begin
               acc := !acc + !rem;
               rem := 0
             end;
             flush ();
             error "interpreter fuel exhausted"
           end;
           rem := !rem - 3;
           acc := !acc + 3;
           pc := i + 4;
           let r =
             try binop_fast op locals.(a) v
             with e ->
               acc := !acc - 1;
               rem := !rem + 1;
               raise e
           in
           if not (V.truthy r) then begin
             pc := target;
             (* the JmpZ lives at i + 3 *)
             if target < i + 3 then refire := true;
             br := true
           end
         | TLRet a ->
           if !rem < 1 then begin
             flush ();
             error "interpreter fuel exhausted"
           end;
           rem := !rem - 1;
           acc := !acc + 1;
           result := locals.(a);
           running := false
         (* --- wide-form arms ---
            These charge per source component with [charge1], which is
            exactly equivalent to the bulk-charge scheme above: a component
            that errors is charged, the component that would exhaust the
            fuel is not. *)
         | TVB (v, op) ->
           charge1 ();
           let a = pop st in
           pc := i + 2;
           push st (binop_fast op a v)
         | TBS (op, d) ->
           let b = pop st in
           let a = pop st in
           let r = binop_fast op a b in
           charge1 ();
           pc := i + 2;
           locals.(d) <- r
         | TBR op ->
           let b = pop st in
           let a = pop st in
           let r = binop_fast op a b in
           charge1 ();
           result := r;
           running := false
         | TVBS (v, op, d) ->
           charge1 ();
           let a = pop st in
           let r = binop_fast op a v in
           charge1 ();
           pc := i + 3;
           locals.(d) <- r
         | TVBZ (v, op, target) ->
           charge1 ();
           let a = pop st in
           let r = binop_fast op a v in
           charge1 ();
           pc := i + 3;
           if not (V.truthy r) then begin
             pc := target;
             (* the JmpZ lives at i + 2 *)
             if target < i + 2 then refire := true;
             br := true
           end
         | TLVBR (a, v, op) ->
           charge1 ();
           charge1 ();
           let r = binop_fast op locals.(a) v in
           charge1 ();
           result := r;
           running := false
         | TLLGPBS (a, o, p, op, d) -> (
           charge1 ();
           charge1 ();
           match locals.(o) with
           | V.Obj handle ->
             let pv = getprop_obj handle (i + 2) p in
             charge1 ();
             let r = binop_fast op locals.(a) pv in
             charge1 ();
             pc := i + 5;
             locals.(d) <- r
           | v -> error "property access on non-object (%s)" (V.tag_to_string (V.tag v)))
         | TLLGPBLBS (a, o, p, op1, c, op2, d) -> (
           charge1 ();
           charge1 ();
           match locals.(o) with
           | V.Obj handle ->
             let pv = getprop_obj handle (i + 2) p in
             charge1 ();
             let r1 = binop_fast op1 locals.(a) pv in
             charge1 ();
             charge1 ();
             let r2 = binop_fast op2 r1 locals.(c) in
             charge1 ();
             pc := i + 7;
             locals.(d) <- r2
           | v -> error "property access on non-object (%s)" (V.tag_to_string (V.tag v)))
         | TGTGPLVBBS (p, x, v, op1, op2, d) -> (
           match this with
           | None -> error "$this used outside of a method call"
           | Some handle ->
             charge1 ();
             let pv = getprop_obj handle (i + 1) p in
             charge1 ();
             charge1 ();
             charge1 ();
             let r1 = binop_fast op1 locals.(x) v in
             charge1 ();
             let r2 = binop_fast op2 pv r1 in
             charge1 ();
             pc := i + 7;
             locals.(d) <- r2)
         | TLGTGPVBBR (a, p, v, op1, op2) -> (
           charge1 ();
           match this with
           | None -> error "$this used outside of a method call"
           | Some handle ->
             charge1 ();
             let pv = getprop_obj handle (i + 2) p in
             charge1 ();
             charge1 ();
             let r1 = binop_fast op1 pv v in
             charge1 ();
             let r2 = binop_fast op2 locals.(a) r1 in
             charge1 ();
             result := r2;
             running := false)
       done
     done
   with e ->
     if !acc > 0 then flush ();
     t.depth <- t.depth - 1;
     if has_probes then t.probes.Probes.on_func_exit fid;
     raise e);
  flush ();
  t.depth <- t.depth - 1;
  if has_probes then t.probes.Probes.on_func_exit fid;
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
