exception Runtime_error = Hhbc.Ops.Runtime_error

let error fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

module V = Hhbc.Value
module I = Hhbc.Instr

(* --- per-call-site inline caches (HHVM-style dispatch machinery) ---

   Each compiled CallMethod site caches (receiver class id -> resolved
   fid), each GetProp/SetProp site (class id -> physical slot), so repeated
   accesses skip the lookup and go through the heap's direct slot fast
   path: a monomorphic entry (-1: empty) and a polymorphic table (class id
   -> value + 1, 0 = empty) allocated with one slot per repo class the
   first time the site sees a second class.  A cache is made with its
   site's compiled code and purely memoizes pure lookups over the
   immutable repo/layout tables — semantics, probe streams and telemetry
   are byte-identical with caches on or off. *)
type site_cache = { mutable c_cid : int; mutable c_val : int; mutable c_poly : int array }

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

(* A simple growable operand stack per frame (the reference loop). *)
type stack = { mutable data : V.t array; mutable sp : int }

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

(* One activation's record, pooled by call depth.  The compiled loop's
   frame: the locals and then the operand-stack slots that carry values
   across block boundaries, in one array; the receiver's object handle
   (-1: none); the last basic block entered.  Its profiling state: [site]
   and [msite] describe the activation's latest call, its bytecode offset
   and whether it dispatches dynamically ([CallMethod], [New]).  Tier 2:
   the translation the activation runs in, its inline node and that node's
   main blocks, whether it shares the caller's translation (inlined), the
   caller's last vasm block when it was entered, and the activation's own
   last vasm block. *)
type act = {
  mutable regs : V.t array;
  mutable this : int;
  mutable bb : int;
  mutable afid : int;
  mutable site : int;
  mutable site_bb : int;
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
    (Probes.Emit { on_vblock = (fun ~src:_ _ -> ()); on_varc = (fun ~src:_ ~dst:_ -> ()) })

let no_slots2 = { own = untranslated; pics = [||]; entry = no_cell; callers = [||]; edges = [||] }

let new_act () =
  {
    regs = [||];
    this = -1;
    bb = -1;
    afid = -1;
    site = -1;
    site_bb = -1;
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

(* A function compiled for the product loop: [body] enters block 0 and
   runs the activation to its return value. *)
type cfunc = { cfid : int; name : string; nparams : int; nlocals : int; nregs : int; body : act -> V.t }

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
  (* the reference loop's instruction index -> basic block id, per
     function *)
  block_maps : int array Lazy.t array;
  (* true: the compiled loop; false: the reference loop [exec_func] *)
  compiled : bool;
  (* per function, compiled at creation; [[||]] on the reference loop *)
  funcs : cfunc array;
  stats : cache_stats;
}

let max_depth = 2000
let pic_entries = 2

(* (destination, slot) pairs cached per source vasm block *)
let arc_ways = 4

let stack_make () = { data = Array.make 16 V.Null; sp = 0 }

(* instruction index -> basic block id *)
let instr_blocks (f : Hhbc.Func.t) =
  let m = Array.make (Array.length f.Hhbc.Func.body) 0 in
  Array.iter
    (fun (b : Hhbc.Func.block) -> Array.fill m b.start b.len b.bb_id)
    (Hhbc.Func.basic_blocks f);
  m

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

(* --- operator fast paths (the semantics are {!Hhbc.Ops}, which dataflow
   constant folding shares) --- *)

(* Shared result values for the compiled loop: Bool results of comparisons
   are immutable, so all sites can return the same two blocks instead of
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
    | I.Div when y <> 0 -> V.Int (x / y)
    | I.Mod when y <> 0 -> V.Int (x mod y)
    | I.Lt -> vbool (x < y)
    | I.Le -> vbool (x <= y)
    | I.Gt -> vbool (x > y)
    | I.Ge -> vbool (x >= y)
    | I.Eq -> vbool (x = y)
    | I.Ne -> vbool (x <> y)
    | _ -> Hhbc.Ops.binop op a b)
  | _ -> Hhbc.Ops.binop op a b

let container_get base key =
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
  | _ -> error "cannot index into %s" (V.tag_to_string (V.tag base))

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

let vec_push base v =
  match base with
  | V.Vec a -> a := Array.append !a [| v |]
  | b -> error "push into non-vec (%s)" (V.tag_to_string (V.tag b))

(* dict ops convert the key to its string form exactly once per op and use
   that one string for lookup, membership and write alike *)
let dict_of op = function
  | V.Dict d -> d
  | b -> error "%s on non-dict (%s)" op (V.tag_to_string (V.tag b))

let dict_get base key =
  match Hashtbl.find_opt (dict_of "DictGet" base) (V.to_string key) with Some v -> v | None -> V.Null

let dict_set base key v = Hashtbl.replace (dict_of "DictSet" base) (V.to_string key) v
let dict_has base key = V.Bool (Hashtbl.mem (dict_of "has()" base) (V.to_string key))

(* [kvs] holds key, value, key, value, ... *)
let new_dict kvs =
  let n = Array.length kvs / 2 in
  let d = Hashtbl.create (max 4 n) in
  for k = 0 to n - 1 do
    Hashtbl.replace d (V.to_string kvs.(2 * k)) kvs.((2 * k) + 1)
  done;
  V.Dict d

let instance_of t cid = function
  | V.Obj handle ->
    let actual = Mh_runtime.Heap.class_of t.heap handle in
    V.Bool (Hhbc.Repo.is_ancestor t.repo ~ancestor:cid ~cls:actual)
  | _ -> V.Bool false

let no_this () = error "$this used outside of a method call"
let not_object v = error "property access on non-object (%s)" (V.tag_to_string (V.tag v))
let not_object_write v = error "property write on non-object (%s)" (V.tag_to_string (V.tag v))
let not_receiver v = error "method call on non-object (%s)" (V.tag_to_string (V.tag v))

let undefined_method t cid nid =
  error "call to undefined method %s::%s"
    (Hhbc.Repo.cls t.repo cid).Hhbc.Class_def.name (Hhbc.Repo.name t.repo nid)

(* Same runtime error the uncached heap path raises on an unknown property. *)
let undefined_prop t cid nid =
  error "undefined property %s::%s"
    (Hhbc.Repo.cls t.repo cid).Hhbc.Class_def.name (Hhbc.Repo.name t.repo nid)

let no_ctor t cid n =
  error "class %s has no constructor but %d arguments were given"
    (Hhbc.Repo.cls t.repo cid).Hhbc.Class_def.name n

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

(* Method ([meth]) or property-slot resolution through a site's cache:
   the monomorphic entry first, then the polymorphic table; a miss
   consults the repo's hierarchy walk or the heap's layout and installs
   the binding (the first one as the monomorphic entry).  -1: none, not
   cached (the caller raises and execution aborts). *)
let site_lookup t c ~meth cid nid =
  let s = t.stats in
  if c.c_cid = cid then begin
    if meth then s.meth_hit_mono <- s.meth_hit_mono + 1 else s.prop_hit_mono <- s.prop_hit_mono + 1;
    c.c_val
  end
  else begin
    let hit = if Array.length c.c_poly = 0 then 0 else c.c_poly.(cid) in
    if hit > 0 then begin
      if meth then s.meth_hit_poly <- s.meth_hit_poly + 1 else s.prop_hit_poly <- s.prop_hit_poly + 1;
      hit - 1
    end
    else begin
      if meth then s.meth_miss <- s.meth_miss + 1 else s.prop_miss <- s.prop_miss + 1;
      match
        if meth then Hhbc.Repo.resolve_method t.repo cid nid else Mh_runtime.Heap.slot_of t.heap cid nid
      with
      | None -> -1
      | Some v ->
        if c.c_cid < 0 then begin
          c.c_cid <- cid;
          c.c_val <- v
        end
        else begin
          if Array.length c.c_poly = 0 then c.c_poly <- Array.make (Hhbc.Repo.n_classes t.repo) 0;
          c.c_poly.(cid) <- v + 1
        end;
        v
    end
  end

let new_site_cache () = { c_cid = -1; c_val = -1; c_poly = [||] }

(* --- profiling: the loops' probe points ---

   [probe_enter] runs once an activation has passed the arity and depth
   checks, [probe_exit] on its normal or error exit; the others where the
   loops cross a block boundary, make a call or touch a property.  Tier 1
   bumps the counters resolved in [slots1]; tier 2 replays the activation
   in its translation, so the loop itself knows which vasm block runs.
   The common case of each probe is inline; a counter's first event
   (resolution) is out of line. *)

let grow_acts t len =
  let n = Array.length t.acts in
  t.acts <- Array.init len (fun i -> if i < n then t.acts.(i) else new_act ())

let[@inline] acquire_act t =
  let idx = t.depth - 1 in
  if idx >= Array.length t.acts then grow_acts t (max 16 (2 * (idx + 1)));
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
  | Probes.Emit e -> e.on_vblock ~src:last blk

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
  if t.depth < 2 then t2_own r act (slots2 t r act.afid) ~caller:(-1)
  else begin
    let c = t.acts.(t.depth - 2) in
    let tr = c.tr in
    if tr == untranslated then t2_own r act (slots2 t r act.afid) ~caller:c.afid
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
        if child >= 0 || (c.msite && pic_miss (slots2 t r c.afid).pics ~site:c.site ~callee:act.afid)
        then begin
          let slow = cell tr.slow.(c.node) c.site_bb in
          if slow >= 0 then begin
            vstep tr ~last:c.last slow;
            c.last <- slow
          end
        end;
        t2_own r act (slots2 t r act.afid) ~caller:tr.root
      end
    end
  end

(* An inlined activation returns into its caller's current block. *)
let t2_exit act =
  if act.inlined && act.last >= 0 && act.parent_last >= 0 && act.parent_last <> act.last then
    match act.tr.sink with
    | Probes.Count c -> count_arc act.tr c.arcs ~src:act.last ~dst:act.parent_last
    | Probes.Emit e -> e.on_varc ~src:act.last ~dst:act.parent_last

(* [act] is the pooled record of the activation's depth *)
let probe_enter t act fid =
  act.afid <- fid;
  match t.probes with
  | Probes.Off -> ()
  | Probes.Events e -> e.on_func_entry fid
  | Probes.Tier1 r ->
    let s = slots1 t r fid in
    if act.s1 != s then act.s1 <- s;
    incr s.entries;
    incr r.total_entries
  | Probes.Tier2 r -> t2_enter t r act

(* tier 2's block probe, which needs no previous block *)
let[@inline] t2_block act bb =
  let main = act.main in
  if bb < Array.length main then begin
    let blk = Array.unsafe_get main bb in
    if blk >= 0 then begin
      vstep act.tr ~last:act.last blk;
      act.last <- blk
    end
  end

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
  | Probes.Tier2 _ -> t2_block act bb
  | Probes.Events e ->
    if prev >= 0 then e.on_arc act.afid ~src:prev ~dst:bb;
    e.on_block act.afid bb
  | Probes.Off -> ()

(* a tier-1 call: the site's list of callees, scanned *)
let t1_call r act ~site ~callee =
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

(* [bb] is the basic block the call site ends *)
let[@inline] probe_call t act ~site ~bb ~msite ~callee =
  match t.probes with
  | Probes.Tier1 r -> t1_call r act ~site ~callee
  | Probes.Tier2 _ ->
    act.site <- site;
    act.site_bb <- bb;
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
  | Probes.Tier2 { data = Some d; _ } -> if write then d.store ~addr else d.load ~addr
  | Probes.Tier2 { data = None; _ } | Probes.Off -> ()
  | Probes.Events e -> e.on_prop_access cid nid ~addr ~write

let probe_exit t act =
  match t.probes with
  | Probes.Off | Probes.Tier1 _ -> ()
  | Probes.Events e -> e.on_func_exit act.afid
  | Probes.Tier2 _ -> t2_exit act

(* The reference loop: one source instruction per dispatch, an operand
   stack and locals per activation, no caches.  It is the oracle the
   compiled loop is tested against.  [this] is the receiver's handle, or
   -1. *)
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
  let act = if t.profiled then acquire_act t else no_act in
  probe_enter t act fid;
  let locals = Array.make (max 1 f.Hhbc.Func.n_locals) V.Null in
  Array.blit args 0 locals 0 (Array.length args);
  let st = stack_make () in
  let body = f.Hhbc.Func.body in
  let bmap = Lazy.force t.block_maps.(fid) in
  let result = ref V.Null in
  let pc = ref 0 in
  let prev_block = ref (-1) in
  (* set when a taken jump goes back to a block start at or before the
     jump, so self-loop arcs and re-executions of the same block still fire
     the probes *)
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
         probe_call t act ~site:i ~bb ~msite:false ~callee;
         push st (exec_func t callee ~this:(-1) args)
       | I.CallMethod (nid, n) ->
         let args = pop_n st n in
         let recv = pop st in
         (match recv with
         | V.Obj handle -> (
           let cid = Mh_runtime.Heap.class_of t.heap handle in
           match Hhbc.Repo.resolve_method t.repo cid nid with
           | None -> undefined_method t cid nid
           | Some callee ->
             probe_call t act ~site:i ~bb ~msite:true ~callee;
             push st (exec_func t callee ~this:handle args))
         | v -> not_receiver v)
       | I.New (cid, n) ->
         let args = pop_n st n in
         let handle = Mh_runtime.Heap.alloc t.heap cid in
         (* constructor ids are hoisted into the repo at load time; no
            per-allocation name lookup or hierarchy walk *)
         (match Hhbc.Repo.ctor_of t.repo cid with
         | Some ctor ->
           probe_call t act ~site:i ~bb ~msite:true ~callee:ctor;
           ignore (exec_func t ctor ~this:handle args)
         | None -> if n > 0 then no_ctor t cid n);
         push st (V.Obj handle)
       | I.GetThis -> if this >= 0 then push st (V.Obj this) else no_this ()
       | I.GetProp nid -> (
         match pop st with
         | V.Obj handle ->
           let addr = heap_op (fun () -> Mh_runtime.Heap.prop_addr t.heap handle nid) in
           if t.prop_probes then
             probe_prop t (Mh_runtime.Heap.class_of t.heap handle) nid ~slot:(-1) ~addr ~write:false;
           push st (heap_op (fun () -> Mh_runtime.Heap.get_prop t.heap handle nid))
         | v -> not_object v)
       | I.SetProp nid -> (
         let v = pop st in
         match pop st with
         | V.Obj handle ->
           let addr = heap_op (fun () -> Mh_runtime.Heap.prop_addr t.heap handle nid) in
           if t.prop_probes then
             probe_prop t (Mh_runtime.Heap.class_of t.heap handle) nid ~slot:(-1) ~addr ~write:true;
           heap_op (fun () -> Mh_runtime.Heap.set_prop t.heap handle nid v)
         | r -> not_object_write r)
       | I.NewVec n -> push st (V.Vec (ref (pop_n st n)))
       | I.VecGet ->
         let key = pop st in
         let base = pop st in
         push st (container_get base key)
       | I.VecSet ->
         let v = pop st in
         let key = pop st in
         let base = pop st in
         container_set base key v
       | I.VecPush ->
         let v = pop st in
         vec_push (pop st) v
       | I.VecLen -> push st (vec_len (pop st))
       | I.NewDict n -> push st (new_dict (pop_n st (2 * n)))
       | I.DictGet ->
         let key = pop st in
         push st (dict_get (pop st) key)
       | I.DictSet ->
         let v = pop st in
         let key = pop st in
         dict_set (pop st) key v
       | I.DictHas ->
         let key = pop st in
         push st (dict_has (pop st) key)
       | I.InstanceOf cid -> push st (instance_of t cid (pop st))
       | I.Cast tag -> push st (Hhbc.Ops.cast tag (pop st))
       | I.Print -> Buffer.add_string t.out (V.to_string (pop st))
       | I.Ret ->
         result := pop st;
         running := false);
       (* taken backward jumps re-enter a block; reset so the probe fires *)
       if !pc <= i then refire := true
     done
   with e ->
     t.depth <- t.depth - 1;
     probe_exit t act;
     raise e);
  t.depth <- t.depth - 1;
  probe_exit t act;
  !result

(* --- the compiled loop ---

   [compile] turns each verified function body into OCaml closures, once
   per engine, at creation.  Within a basic block the stack code is
   rebuilt into expression trees: an instruction that pushes a value
   becomes a tree node whose operands are the trees below it, so operands
   pass as OCaml values and never touch an operand stack.  Values that are
   live across a block boundary go to numbered stack slots of the frame
   ([regs], after the locals); the verifier's must-equal stack depths fix
   every slot's number at compile time.  Four rules keep the compiled
   code exact against the reference loop:

   - each node charges its one unit of fuel after its operands, before its
     own effect (post order, which is source order), so every fuel level
     truncates execution where the reference loop's check does;
   - pending trees are stored to their slots, bottom first, before any
     statement (store, pop, property or container write, echo, [Dup],
     [Nop]) or block end, so they run before it, as in the source;
   - a node reads the slots its operands came from only after its tree
     operands ran; a tree at stack position p reads only slots >= p, and
     the bottom-first stores write slot p after its tree is read, so no
     slot is overwritten before its reader runs;
   - the terminator that leaves a block enters the next one through the
     block probe, so the probe fires on every block entry.

   A statement's closure runs it and calls the next statement's; a block's
   terminator tail-calls the next block, or returns the function's value.
   Calls with up to two arguments write them straight into the callee's
   pooled frame. *)

type tree =
  | Lit of V.t
  | Arr of V.t array  (* static array payload, copied per execution *)
  | Local of int
  | Slot of int  (* a stack slot's register *)
  | This
  | Bin of I.binop * tree * tree
  | Op1 of (V.t -> V.t) * tree  (* UnOp, Cast, VecLen, InstanceOf *)
  | Op2 of (V.t -> V.t -> V.t) * tree * tree  (* VecGet, DictGet, DictHas *)
  | Make of (V.t array -> V.t) * tree list  (* NewVec, NewDict *)
  | Prop of I.nid * tree
  | Call of I.fid * site * tree list  (* callee, site, arguments *)
  | Meth of I.nid * site * tree * tree list  (* method name, site, receiver, arguments *)
  | New of I.cid * site * tree list

(* a call's bytecode offset and basic block *)
and site = { pc : int; bb : int }

(* One source instruction's fuel, spent before it runs: the instruction
   that would exhaust the fuel does not run and is not counted, one that
   errors after passing the check is. *)
let[@inline] charge t =
  if t.fuel <= 0 then error "interpreter fuel exhausted";
  t.fuel <- t.fuel - 1

(* [n] units that no other effect separates, as [n] [charge]s *)
let[@inline] charge_n t n =
  if t.fuel < n then begin
    if t.fuel > 0 then t.fuel <- 0;
    error "interpreter fuel exhausted"
  end;
  t.fuel <- t.fuel - n

(* [GetThis]: the receiver's handle *)
let[@inline] this_handle t fr =
  charge t;
  let h = fr.this in
  if h < 0 then no_this ();
  h

let overflow t =
  t.depth <- t.depth - 1;
  error "call stack overflow (depth > %d)" max_depth

let arity (cf : cfunc) n = error "function %s expects %d arguments, got %d" cf.name cf.nparams n

(* The pooled frame of a new activation of [cf] at the next depth, its
   locals past the [nparams] arguments null. *)
let[@inline] push_frame t cf this =
  t.depth <- t.depth + 1;
  if t.depth > max_depth then overflow t;
  let idx = t.depth - 1 in
  if idx >= Array.length t.acts then grow_acts t (max 16 (2 * (idx + 1)));
  let fr = Array.unsafe_get t.acts idx in
  if Array.length fr.regs < cf.nregs then begin
    fr.regs <- Array.make cf.nregs V.Null;
    t.stats.frame_allocs <- t.stats.frame_allocs + 1
  end
  else begin
    let regs = fr.regs in
    for i = cf.nparams to cf.nlocals - 1 do
      Array.unsafe_set regs i V.Null
    done;
    t.stats.frame_reuses <- t.stats.frame_reuses + 1
  end;
  fr.this <- this;
  fr

(* the compiled loop's block probe, on entry to block [bb] *)
let[@inline] block_entry t fr bb =
  match t.probes with
  | Probes.Off -> ()
  | Probes.Tier2 _ -> t2_block fr bb
  | Probes.Tier1 _ | Probes.Events _ ->
    probe_block t fr ~prev:fr.bb bb;
    fr.bb <- bb

(* Runs an activation whose frame [push_frame] made and whose arguments
   are written.  Its exit probe runs here on a return; an error unwinds
   every aborted activation at [call], which runs their exit probes. *)
let run_frame t cf fr =
  if t.profiled then begin
    probe_enter t fr cf.cfid;
    fr.bb <- -1;
    block_entry t fr 0;
    let v = cf.body fr in
    t.depth <- t.depth - 1;
    probe_exit t fr;
    v
  end
  else begin
    let v = cf.body fr in
    t.depth <- t.depth - 1;
    v
  end

(* a call with its [n] <= 2 arguments [a] and [b] *)
let invoke2 t fid this n a b =
  let cf = Array.unsafe_get t.funcs fid in
  if cf.nparams <> n then arity cf n;
  let fr = push_frame t cf this in
  if n > 0 then begin
    Array.unsafe_set fr.regs 0 a;
    if n > 1 then Array.unsafe_set fr.regs 1 b
  end;
  run_frame t cf fr

let invoke t fid this (args : V.t array) =
  let cf = t.funcs.(fid) in
  let n = Array.length args in
  if cf.nparams <> n then arity cf n;
  let fr = push_frame t cf this in
  Array.blit args 0 fr.regs 0 n;
  run_frame t cf fr

(* A property access on a known object, through the site's cache. *)
let prop_slot t pc handle nid ~write =
  let cid = Mh_runtime.Heap.class_of t.heap handle in
  let slot = site_lookup t pc ~meth:false cid nid in
  if slot < 0 then undefined_prop t cid nid;
  if t.prop_probes then
    probe_prop t cid nid ~slot
      ~addr:(if t.prop_addrs then Mh_runtime.Heap.slot_addr t.heap handle slot else 0)
      ~write;
  slot

let getprop t pc handle nid = Mh_runtime.Heap.get_slot t.heap handle (prop_slot t pc handle nid ~write:false)

let setprop t pc handle nid v =
  Mh_runtime.Heap.set_slot t.heap handle (prop_slot t pc handle nid ~write:true) v

(* a node's operand values, in order *)
let eval_all (es : (act -> V.t) array) fr = Array.map (fun e -> e fr) es

let no_arg (_ : act) = V.Null

(* Expression trees to closures.  One general rule compiles every tree.
   A few shape-specific arms read a leaf operand (a literal or a local) in
   place and charge its fuel with their own ([charge_n]), or pass a
   [$this] base or receiver as a handle; each stays only while a measured
   input executes it (DESIGN.md, "Interpreter fast path", lists the
   counts). *)
let rec cexpr t = function
  | Lit v -> fun _ -> charge t; v
  | Arr a -> fun _ -> charge t; V.Vec (ref (Array.copy a))
  | Local l -> fun fr -> charge t; Array.unsafe_get fr.regs l
  | Slot r -> fun fr -> Array.unsafe_get fr.regs r
  | This -> fun fr -> V.Obj (this_handle t fr)
  | Bin (op, a, b) -> cbin t op a b
  | Op1 (f, a) ->
    let a = cexpr t a in
    fun fr ->
      let x = a fr in
      charge t;
      f x
  | Op2 (f, a, b) ->
    let a = cexpr t a and b = cexpr t b in
    fun fr ->
      let x = a fr in
      let y = b fr in
      charge t;
      f x y
  | Make (f, args) ->
    let args = Array.of_list (List.map (cexpr t) args) in
    fun fr ->
      let vs = eval_all args fr in
      charge t;
      f vs
  | Prop (nid, This) ->
    let pc = new_site_cache () in
    fun fr ->
      let h = this_handle t fr in
      charge t;
      getprop t pc h nid
  | Prop (nid, r) -> (
    let r = cexpr t r and pc = new_site_cache () in
    fun fr ->
      let v = r fr in
      charge t;
      match v with V.Obj h -> getprop t pc h nid | v -> not_object v)
  | Call (callee, site, args) -> (
    (* a direct call: the verifier checked its arity *)
    let probe fr = if t.profiled then probe_call t fr ~site:site.pc ~bb:site.bb ~msite:false ~callee in
    match cargs t args with
    | n, a, b, _ when n <= 2 ->
      fun fr ->
        let x = a fr in
        let y = b fr in
        charge t;
        probe fr;
        invoke2 t callee (-1) n x y
    | _, _, _, args ->
      fun fr ->
        let vs = eval_all args fr in
        charge t;
        probe fr;
        invoke t callee (-1) vs)
  | Meth (nid, site, recv, args) -> cmeth t nid site recv args
  | New (cid, site, args) -> (
    let args = Array.of_list (List.map (cexpr t) args) in
    match Hhbc.Repo.ctor_of t.repo cid with
    | Some ctor ->
      fun fr ->
        let vs = eval_all args fr in
        charge t;
        let h = Mh_runtime.Heap.alloc t.heap cid in
        if t.profiled then probe_call t fr ~site:site.pc ~bb:site.bb ~msite:true ~callee:ctor;
        ignore (invoke t ctor h vs);
        V.Obj h
    | None ->
      fun fr ->
        ignore (eval_all args fr);
        charge t;
        let h = Mh_runtime.Heap.alloc t.heap cid in
        if Array.length args > 0 then no_ctor t cid (Array.length args);
        V.Obj h)

and cbin t op a b =
  match (a, b) with
  | Local x, Lit v -> fun fr -> charge_n t 3; binop_fast op (Array.unsafe_get fr.regs x) v
  | _, Lit v ->
    let a = cexpr t a in
    fun fr ->
      let x = a fr in
      charge_n t 2;
      binop_fast op x v
  | _, Local y ->
    let a = cexpr t a in
    fun fr ->
      let x = a fr in
      charge_n t 2;
      binop_fast op x (Array.unsafe_get fr.regs y)
  | _ ->
    let a = cexpr t a and b = cexpr t b in
    fun fr ->
      let x = a fr in
      let y = b fr in
      charge t;
      binop_fast op x y

(* A call's arguments: their count, the first two ([no_arg] when absent)
   for a call that passes them as values, and all of them. *)
and cargs t args =
  let all = Array.of_list (List.map (cexpr t) args) in
  let n = Array.length all in
  (n, (if n > 0 then all.(0) else no_arg), (if n > 1 then all.(1) else no_arg), all)

(* A method call.  A [$this] receiver is checked where [GetThis] runs, any
   other receiver after the call's own charge, as in the reference loop;
   with up to two arguments a [$this] receiver passes as a handle. *)
and cmeth t nid site recv args =
  let mc = new_site_cache () in
  let[@inline] dispatch fr h =
    let cid = Mh_runtime.Heap.class_of t.heap h in
    let callee = site_lookup t mc ~meth:true cid nid in
    if callee < 0 then undefined_method t cid nid;
    if t.profiled then probe_call t fr ~site:site.pc ~bb:site.bb ~msite:true ~callee;
    callee
  in
  let[@inline] obj = function V.Obj h -> h | v -> not_receiver v in
  match (recv, cargs t args) with
  | This, (n, a, b, _) when n <= 2 ->
    fun fr ->
      let h = this_handle t fr in
      let x = a fr in
      let y = b fr in
      charge t;
      invoke2 t (dispatch fr h) h n x y
  | r, (n, a, b, _) when n <= 2 ->
    let r = cexpr t r in
    fun fr ->
      let v = r fr in
      let x = a fr in
      let y = b fr in
      charge t;
      let h = obj v in
      invoke2 t (dispatch fr h) h n x y
  | r, (_, _, _, args) ->
    let r = cexpr t r in
    fun fr ->
      let v = r fr in
      let vs = eval_all args fr in
      charge t;
      let h = obj v in
      invoke t (dispatch fr h) h vs

(* --- statements and terminators: each takes the closure that runs the
   rest of the block --- *)

let s_flush t r e k =
  let e = cexpr t e in
  fun fr ->
    let v = e fr in
    Array.unsafe_set fr.regs r v;
    k fr

let s_store t l e k =
  match e with
  | Lit v ->
    fun fr ->
      charge_n t 2;
      Array.unsafe_set fr.regs l v;
      k fr
  | e ->
    let e = cexpr t e in
    fun fr ->
      let v = e fr in
      charge t;
      Array.unsafe_set fr.regs l v;
      k fr

(* [Nop], or [Dup] of the value stored in slot [r] *)
let s_nop t k =
  fun fr ->
    charge t;
    k fr

let s_dup t r k =
  fun fr ->
    charge t;
    Array.unsafe_set fr.regs (r + 1) (Array.unsafe_get fr.regs r);
    k fr

(* a statement with one, two or three operands and the effect [f] *)
let s_eff1 t a f k =
  let a = cexpr t a in
  fun fr ->
    let x = a fr in
    charge t;
    f x;
    k fr

let s_eff2 t a b f k =
  let a = cexpr t a and b = cexpr t b in
  fun fr ->
    let x = a fr in
    let y = b fr in
    charge t;
    f x y;
    k fr

let s_eff3 t a b c f k =
  let a = cexpr t a and b = cexpr t b and c = cexpr t c in
  fun fr ->
    let x = a fr in
    let y = b fr in
    let z = c fr in
    charge t;
    f x y z;
    k fr

let s_setprop t nid recv v k =
  let pc = new_site_cache () in
  match recv with
  | This ->
    let v = cexpr t v in
    fun fr ->
      let h = this_handle t fr in
      let x = v fr in
      charge t;
      setprop t pc h nid x;
      k fr
  | r -> s_eff2 t r v (fun o x -> match o with V.Obj h -> setprop t pc h nid x | o -> not_object_write o) k

(* Leaves the current block for block [b] of [code]. *)
let[@inline] enter t code fr b =
  block_entry t fr b;
  (Array.unsafe_get code b) fr

let t_ret t = function
  | Local l ->
    fun fr ->
      charge_n t 2;
      Array.unsafe_get fr.regs l
  | e ->
    let e = cexpr t e in
    fun fr ->
      let v = e fr in
      charge t;
      v

(* a conditional jump: to [yes] when the condition is truthy, else [no] *)
let t_cond t code c ~yes ~no =
  let c = cexpr t c in
  fun fr ->
    let v = c fr in
    charge t;
    if V.truthy v then enter t code fr yes else enter t code fr no

let compile t fid =
  let f = Hhbc.Repo.func t.repo fid in
  (* Static verification gates the compiled loop: a body is compiled only
     once FuncChecker-style abstract interpretation has proven its stack
     discipline, jump targets and repo links, which the tree building
     below and the unchecked frame accesses assume. *)
  (match Js_analysis.Verify.first_error t.repo f with
  | None -> ()
  | Some first -> error "verification failed: %s" (Js_analysis.Diag.to_string first));
  let body = f.Hhbc.Func.body in
  let blocks = Hhbc.Func.basic_blocks f in
  let block_at = Array.make (Array.length body) 0 in
  Array.iter (fun (b : Hhbc.Func.block) -> block_at.(b.start) <- b.bb_id) blocks;
  let nl = max 1 f.Hhbc.Func.n_locals in
  let code = Array.make (Array.length blocks) (fun _ -> error "unreachable block") in
  let max_stack = ref 0 in
  (* Rebuilds block [b], entered with [d_in] values on the stack (in slots
     0 .. d_in - 1), into its closure; returns the stack depth it leaves. *)
  let compile_block b d_in =
    let blk = blocks.(b) in
    (* the stack, top first; a slot entry sits in its own slot *)
    let stk = ref (List.init d_in (fun i -> Slot (nl + d_in - 1 - i))) in
    let depth = ref d_in in
    let stmts = ref [] and term = ref None in
    let emit s = stmts := s :: !stmts in
    let push e =
      stk := e :: !stk;
      incr depth;
      max_stack := max !max_stack !depth
    in
    let pop () =
      match !stk with
      | e :: rest ->
        stk := rest;
        decr depth;
        e
      | [] -> error "function %s: operand stack underflow" f.Hhbc.Func.name
    in
    (* bottom first *)
    let rec pop_n n acc = if n = 0 then acc else pop_n (n - 1) (pop () :: acc) in
    (* stores every pending tree to its slot, bottom first *)
    let flush () =
      let rec go pos = function
        | [] -> []
        | e :: below ->
          let below = go (pos - 1) below in
          let r = nl + pos in
          (match e with Slot s when s = r -> () | e -> emit (s_flush t r e));
          Slot r :: below
      in
      stk := go (!depth - 1) !stk
    in
    let op2 f =
      let y = pop () in
      push (Op2 (f, pop (), y))
    in
    let stmt1 s =
      let a = pop () in
      flush ();
      emit (s a)
    in
    let stmt2 s =
      let y = pop () in
      let x = pop () in
      flush ();
      emit (s x y)
    in
    let stmt3 s =
      let z = pop () in
      let y = pop () in
      let x = pop () in
      flush ();
      emit (s x y z)
    in
    let last1 k =
      let a = pop () in
      flush ();
      term := Some (k a)
    in
    for pc = blk.start to blk.start + blk.len - 1 do
      match body.(pc) with
      | I.Nop ->
        flush ();
        emit (s_nop t)
      | I.LitInt n -> push (Lit (V.Int n))
      | I.LitFloat x -> push (Lit (V.Float x))
      | I.LitBool x -> push (Lit (V.Bool x))
      | I.LitNull -> push (Lit V.Null)
      | I.LitStr sid -> push (Lit (V.Str (Hhbc.Repo.string t.repo sid)))
      | I.LitArr aid -> push (Arr (Hhbc.Repo.static_array t.repo aid))
      | I.LoadLoc l -> push (Local l)
      | I.StoreLoc l -> stmt1 (s_store t l)
      | I.Pop -> stmt1 (fun e -> s_eff1 t e ignore)
      | I.Dup ->
        flush ();
        emit (s_dup t (nl + !depth - 1));
        push (Slot (nl + !depth))
      | I.BinOp op ->
        let y = pop () in
        push (Bin (op, pop (), y))
      | I.UnOp op -> push (Op1 (Hhbc.Ops.unop op, pop ()))
      | I.Jmp target ->
        flush ();
        let tb = block_at.(target) in
        term := Some (fun fr -> charge t; enter t code fr tb)
      | I.JmpZ target -> last1 (fun c -> t_cond t code c ~yes:(b + 1) ~no:block_at.(target))
      | I.JmpNZ target -> last1 (fun c -> t_cond t code c ~yes:block_at.(target) ~no:(b + 1))
      | I.Call (callee, n) -> push (Call (callee, { pc; bb = b }, pop_n n []))
      | I.CallMethod (nid, n) ->
        let args = pop_n n [] in
        push (Meth (nid, { pc; bb = b }, pop (), args))
      | I.New (cid, n) -> push (New (cid, { pc; bb = b }, pop_n n []))
      | I.GetThis -> push This
      | I.GetProp nid -> push (Prop (nid, pop ()))
      | I.SetProp nid -> stmt2 (s_setprop t nid)
      | I.NewVec n -> push (Make ((fun vs -> V.Vec (ref vs)), pop_n n []))
      | I.VecGet -> op2 container_get
      | I.VecSet -> stmt3 (fun a b c -> s_eff3 t a b c container_set)
      | I.VecPush -> stmt2 (fun a b -> s_eff2 t a b vec_push)
      | I.VecLen -> push (Op1 (vec_len, pop ()))
      | I.NewDict n -> push (Make (new_dict, pop_n (2 * n) []))
      | I.DictGet -> op2 dict_get
      | I.DictSet -> stmt3 (fun a b c -> s_eff3 t a b c dict_set)
      | I.DictHas -> op2 dict_has
      | I.InstanceOf cid -> push (Op1 (instance_of t cid, pop ()))
      | I.Cast tag -> push (Op1 (Hhbc.Ops.cast tag, pop ()))
      | I.Print -> stmt1 (fun e -> s_eff1 t e (fun v -> Buffer.add_string t.out (V.to_string v)))
      | I.Ret -> last1 (t_ret t)
    done;
    let term =
      match !term with
      | Some k -> k
      | None ->
        (* falls through into the next block *)
        flush ();
        fun fr -> enter t code fr (b + 1)
    in
    code.(b) <- List.fold_left (fun k s -> s k) term !stmts;
    !depth
  in
  (* blocks in breadth-first order from the entry, each with the depth its
     first predecessor leaves (the verifier proved all agree); unreachable
     blocks keep their trap *)
  let d_in = Array.make (Array.length blocks) (-1) in
  let queue = Queue.create () in
  d_in.(0) <- 0;
  Queue.add 0 queue;
  while not (Queue.is_empty queue) do
    let b = Queue.pop queue in
    let d_out = compile_block b d_in.(b) in
    List.iter
      (fun s ->
        if d_in.(s) < 0 then begin
          d_in.(s) <- d_out;
          Queue.add s queue
        end)
      blocks.(b).succs
  done;
  {
    cfid = fid;
    name = f.Hhbc.Func.name;
    nparams = f.Hhbc.Func.n_params;
    nlocals = nl;
    nregs = nl + !max_stack;
    body = code.(0);
  }

let no_cfunc = { cfid = -1; name = ""; nparams = 0; nlocals = 1; nregs = 1; body = (fun _ -> V.Null) }

let create ?(probes = Probes.none) ?(fuel = 200_000_000) ?(inline_cache = true) ?(typed = true)
    repo heap =
  let compiled = inline_cache && typed in
  let n_funcs = Hhbc.Repo.n_funcs repo in
  let t =
    {
      repo;
      heap;
      probes;
      profiled = (match probes with Probes.Off -> false | _ -> true);
      prop_probes =
        (match probes with
        | Probes.Events _ | Probes.Tier1 _ | Probes.Tier2 { data = Some _; _ } -> true
        | Probes.Off | Probes.Tier2 _ -> false);
      prop_addrs =
        (match probes with
        | Probes.Events _ | Probes.Tier2 { data = Some _; _ } -> true
        | Probes.Off | Probes.Tier1 _ | Probes.Tier2 _ -> false);
      slots1 = (match probes with Probes.Tier1 _ -> Array.make n_funcs no_slots1 | _ -> [||]);
      slots2 = (match probes with Probes.Tier2 _ -> Array.make n_funcs no_slots2 | _ -> [||]);
      prop_cells = [||];
      acts = [||];
      out = Buffer.create 256;
      fuel0 = fuel;
      fuel;
      depth = 0;
      block_maps =
        (if compiled then [||] else Array.init n_funcs (fun fid -> lazy (instr_blocks (Hhbc.Repo.func repo fid))));
      compiled;
      funcs = (if compiled then Array.make n_funcs no_cfunc else [||]);
      stats =
        { meth_hit_mono = 0; meth_hit_poly = 0; meth_miss = 0; prop_hit_mono = 0; prop_hit_poly = 0;
          prop_miss = 0; frame_reuses = 0; frame_allocs = 0 };
    }
  in
  (* "JIT all code before the first request": every function is compiled
     at creation *)
  for fid = 0 to Array.length t.funcs - 1 do
    t.funcs.(fid) <- compile t fid
  done;
  t

let call t fid args =
  let args = Array.of_list args in
  if not t.compiled then exec_func t fid ~this:(-1) args
  else begin
    let depth = t.depth in
    try invoke t fid (-1) args
    with e ->
      (* an error unwinds every activation it aborts here, innermost
         first, as the reference loop's handlers do one by one *)
      if t.profiled then
        for d = t.depth - 1 downto depth do
          probe_exit t t.acts.(d)
        done;
      t.depth <- depth;
      raise e
  end

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
