(* BOLT-style stale-profile matching (paper §VI-B; PAPERS.md: BOLT, and the
   PGO survey's stale-profile sections).

   A Jump-Start package is profiled against one build of the application.  A
   code push produces a new build whose entity ids (function/class/string/
   name/unit tables) and basic-block structure have shifted, so raw counters
   cannot be imported directly.  Instead every package embeds a *match
   table* ({!shape}): per-function qualified names plus id-free structural
   hashes at function and block granularity, computed against the build the
   seeder profiled.  The salvage path decodes the stale package's counters
   without checking their ids ({!Counters.read_raw}), matches old entities
   onto the live repo ({!transfer}) and rebuilds a counter set that passes
   the consumer's P300-P321 consistency gates — counters for unmatched or
   now-infeasible regions are dropped, never imported blind.

   Matching ladder (functions): qualified name first (strict-hash pairs
   within a name group, then positional), then strict structural hash over
   the unmatched (rename detection — a renamed-but-unchanged body keeps its
   hash), then loose hash (renamed + id drift).  Blocks are matched only
   *within* a matched function pair — never across functions, so trivially
   identical blocks (e.g. [LitInt; Ret]) in different functions cannot
   attribute counters to the wrong one — strict hash first, then loose,
   each group paired in block order (positional tie-break). *)

module I = Hhbc.Instr
module F = Hhbc.Func
module Repo = Hhbc.Repo
module W = Js_util.Binio.Writer
module Rd = Js_util.Binio.Reader

(* --- id-free structural hashing -------------------------------------- *)

(* Strict hashes resolve every table id to its content: callee qualified
   name, class name, interned string/name text, static-array values.  Two
   builds that intern the same entities in a different order still hash
   identical code identically.  Loose hashes drop the resolved names
   entirely (opcode + non-id immediates only): they survive callee renames
   and string edits, at the cost of more collisions — which is why they are
   only consulted after strict matching, inside a function scope. *)

let rec fold_value h (v : Hhbc.Value.t) =
  let open Hhbc.Value in
  let h = I.fnv_mix h (tag_index (tag v)) in
  match v with
  | Null -> h
  | Bool b -> I.fnv_mix h (if b then 1 else 0)
  | Int n -> I.fnv_mix h n
  | Float f -> I.fnv_float h f
  | Str s -> I.fnv_string h s
  | Vec a -> Array.fold_left fold_value (I.fnv_mix h (Array.length !a)) !a
  | Dict d -> I.fnv_mix h (Hashtbl.length d)
  | Obj _ -> h

let qualified_names repo =
  Array.init (Repo.n_funcs repo) (fun fid ->
      let f = Repo.func repo fid in
      match f.F.class_id with
      | Some cid -> (Repo.cls repo cid).Hhbc.Class_def.name ^ "::" ^ f.F.name
      | None -> f.F.name)

let strict_fold repo qual ~jump_base h (ins : I.t) =
  let mix = I.fnv_mix and str = I.fnv_string in
  let op h = mix h (I.opcode ins) in
  match ins with
  | I.LitStr sid -> str (op h) (Repo.string repo sid)
  | I.LitArr aid ->
    Array.fold_left fold_value (op h) (Repo.static_array repo aid)
  | I.Call (fid, n) -> mix (str (op h) qual.(fid)) n
  | I.CallMethod (nid, n) -> mix (str (op h) (Repo.name repo nid)) n
  | I.New (cid, n) -> mix (str (op h) (Repo.cls repo cid).Hhbc.Class_def.name) n
  | I.GetProp nid | I.SetProp nid -> str (op h) (Repo.name repo nid)
  | I.InstanceOf cid -> str (op h) (Repo.cls repo cid).Hhbc.Class_def.name
  | _ -> I.fnv_fold ~jump_base h ins (* id-free constructors *)

let loose_fold ~jump_base h (ins : I.t) =
  let mix = I.fnv_mix in
  let h = mix h (I.opcode ins) in
  match ins with
  | I.LitStr _ | I.LitArr _ | I.GetProp _ | I.SetProp _ | I.InstanceOf _ -> h
  | I.Call (_, n) | I.CallMethod (_, n) | I.New (_, n) -> mix h n
  | I.LitInt n -> mix h n
  | I.LitFloat f -> I.fnv_float h f
  | I.LitBool b -> mix h (if b then 1 else 0)
  | I.LoadLoc l | I.StoreLoc l -> mix h l
  | I.BinOp op -> mix h (I.binop_index op)
  | I.UnOp op -> mix h (match op with I.Neg -> 0 | I.Not -> 1 | I.BitNot -> 2)
  | I.Jmp t | I.JmpZ t | I.JmpNZ t -> mix h (t - jump_base)
  | I.NewVec n | I.NewDict n -> mix h n
  | I.Cast tg -> mix h (Hhbc.Value.tag_index tg)
  | I.Nop | I.LitNull | I.Pop | I.Dup | I.GetThis | I.VecGet | I.VecSet
  | I.VecPush | I.VecLen | I.DictGet | I.DictSet | I.DictHas | I.Print | I.Ret ->
    h

(* --- the match table ("shape") embedded in every package -------------- *)

type func_sig = {
  sg_name : string;  (** qualified: ["Class::method"] or the bare name *)
  sg_strict : int;  (** id-free strict hash of the whole body + arity shape *)
  sg_loose : int;
  sg_body_len : int;
  sg_block_starts : int array;  (** first pc of each block (site mapping) *)
  sg_block_lens : int array;
  sg_block_strict : int array;
  sg_block_loose : int array;
  sg_unit : int;  (** owning unit id in the profiled build *)
}

type shape = {
  sh_funcs : func_sig array;  (** indexed by the profiled build's fid *)
  sh_class_names : string array;
  sh_names : string array;
  sh_unit_paths : string array;
}

let func_sig_of repo qual (f : F.t) =
  let blocks = F.basic_blocks f in
  let strict_of ~fold =
    let h = ref I.fnv_basis in
    h := I.fnv_mix !h f.F.n_params;
    h := I.fnv_mix !h f.F.n_locals;
    h := I.fnv_mix !h (Array.length f.F.body);
    Array.iter (fun ins -> h := fold ~jump_base:0 !h ins) f.F.body;
    !h land max_int
  in
  let block_hash_of ~fold (blk : F.block) =
    let h = ref (I.fnv_mix I.fnv_basis blk.F.len) in
    for pc = blk.F.start to blk.F.start + blk.F.len - 1 do
      h := fold ~jump_base:blk.F.start !h f.F.body.(pc)
    done;
    !h land max_int
  in
  let strict = strict_fold repo qual in
  {
    sg_name = qual.(f.F.id);
    sg_strict = strict_of ~fold:strict;
    sg_loose = strict_of ~fold:loose_fold;
    sg_body_len = Array.length f.F.body;
    sg_block_starts = Array.map (fun b -> b.F.start) blocks;
    sg_block_lens = Array.map (fun b -> b.F.len) blocks;
    sg_block_strict = Array.map (block_hash_of ~fold:strict) blocks;
    sg_block_loose = Array.map (block_hash_of ~fold:loose_fold) blocks;
    sg_unit = f.F.unit_id;
  }

let shape_of_repo repo =
  let qual = qualified_names repo in
  {
    sh_funcs = Array.init (Repo.n_funcs repo) (fun fid -> func_sig_of repo qual (Repo.func repo fid));
    sh_class_names =
      Array.init (Repo.n_classes repo) (fun cid -> (Repo.cls repo cid).Hhbc.Class_def.name);
    sh_names = Array.init (Repo.n_names repo) (fun nid -> Repo.name repo nid);
    sh_unit_paths =
      Array.init (Repo.n_units repo) (fun uid -> (Repo.unit_of repo uid).Hhbc.Unit_def.path);
  }

let write_shape w (s : shape) =
  W.array w (fun n -> W.string w n) s.sh_class_names;
  W.array w (fun n -> W.string w n) s.sh_names;
  W.array w (fun p -> W.string w p) s.sh_unit_paths;
  W.array w
    (fun fs ->
      W.string w fs.sg_name;
      W.varint w fs.sg_strict;
      W.varint w fs.sg_loose;
      W.varint w fs.sg_body_len;
      W.array w (fun v -> W.varint w v) fs.sg_block_starts;
      W.array w (fun v -> W.varint w v) fs.sg_block_lens;
      W.array w (fun v -> W.varint w v) fs.sg_block_strict;
      W.array w (fun v -> W.varint w v) fs.sg_block_loose;
      W.varint w fs.sg_unit)
    s.sh_funcs

let read_shape r =
  let sh_class_names = Rd.array r (fun r -> Rd.string r) in
  let sh_names = Rd.array r (fun r -> Rd.string r) in
  let sh_unit_paths = Rd.array r (fun r -> Rd.string r) in
  let sh_funcs =
    Rd.array r (fun r ->
        let sg_name = Rd.string r in
        let sg_strict = Rd.varint r in
        let sg_loose = Rd.varint r in
        let sg_body_len = Rd.varint r in
        let sg_block_starts = Rd.array r (fun r -> Rd.varint r) in
        let sg_block_lens = Rd.array r (fun r -> Rd.varint r) in
        let sg_block_strict = Rd.array r (fun r -> Rd.varint r) in
        let sg_block_loose = Rd.array r (fun r -> Rd.varint r) in
        let sg_unit = Rd.varint r in
        if
          Array.length sg_block_strict <> Array.length sg_block_starts
          || Array.length sg_block_loose <> Array.length sg_block_starts
          || Array.length sg_block_lens <> Array.length sg_block_starts
        then raise (Js_util.Binio.Corrupt "match table: ragged block hash vectors");
        (* [transfer] finds a call site's block by scanning these starts, so
           they must be what [F.basic_blocks] gives: 0 first, strictly
           increasing, inside the body *)
        Array.iteri
          (fun i st ->
            let rises = if i = 0 then st = 0 else st > sg_block_starts.(i - 1) in
            if not (rises && st < sg_body_len) then
              raise (Js_util.Binio.Corrupt "match table: block starts out of order"))
          sg_block_starts;
        {
          sg_name;
          sg_strict;
          sg_loose;
          sg_body_len;
          sg_block_starts;
          sg_block_lens;
          sg_block_strict;
          sg_block_loose;
          sg_unit;
        })
  in
  { sh_funcs; sh_class_names; sh_names; sh_unit_paths }

(* --- matching ---------------------------------------------------------- *)

type stats = {
  funcs_total : int;  (** functions in the stale build *)
  funcs_matched : int;
  funcs_by_name : int;
  funcs_by_strict_hash : int;  (** rename detections *)
  funcs_by_loose_hash : int;
  blocks_total : int;  (** blocks of profiled old functions *)
  blocks_matched : int;
  counters_total : int;  (** block-counter mass in the stale profile *)
  counters_transferred : int;  (** mass that landed on the live repo *)
  arcs_dropped : int;  (** unmatched endpoint / no CFG edge / infeasible *)
  sites_dropped : int;
  props_dropped : int;
}

(* Quality knob for the salvage threshold: the fraction of profiled counter
   mass that survived transfer (clamped; entry-ratio rescaling can
   overshoot marginally). *)
let quality st =
  if st.counters_total = 0 then if st.funcs_matched > 0 then 1.0 else 0.0
  else min 1.0 (float_of_int st.counters_transferred /. float_of_int st.counters_total)

let matched_fraction st =
  if st.funcs_total = 0 then 0.0
  else float_of_int st.funcs_matched /. float_of_int st.funcs_total

type transfer = {
  counters : Counters.t;
  fid_map : int option array;  (** old fid -> live fid *)
  strict_match : bool array;  (** old fid: body identical (strict hash) *)
  unit_map : int option array;  (** old uid -> live uid (by path) *)
  func_order : int array -> int array;  (** remap an old placement order *)
  preload_units : int array -> int array;  (** remap an old preload list *)
  stats : stats;
}

(* Pair two same-hash populations in positional order: [olds] and [news]
   ascending; the k-th unmatched old takes the k-th unmatched new.  Within a
   scope (name group, or blocks of one function pair) this is the
   positional tie-break that keeps identical twins (old A, old B) aligned
   with (new A, new B) instead of crossing. *)
let pair_in_order ~key ~olds ~news ~old_done ~new_done ~assign =
  let groups = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if not (new_done n) then
        let k = key `New n in
        match Hashtbl.find_opt groups k with
        | Some q -> Queue.add n q
        | None ->
          let q = Queue.create () in
          Queue.add n q;
          Hashtbl.add groups k q)
    news;
  List.iter
    (fun o ->
      if not (old_done o) then
        match Hashtbl.find_opt groups (key `Old o) with
        | None -> ()
        | Some q ->
          let rec take () =
            if not (Queue.is_empty q) then begin
              let n = Queue.pop q in
              if new_done n then take () else assign o n
            end
          in
          take ())
    olds

let match_funcs repo (shape : shape) =
  let n_old = Array.length shape.sh_funcs in
  let n_new = Repo.n_funcs repo in
  let qual = qualified_names repo in
  let new_sigs = Array.init n_new (fun fid -> func_sig_of repo qual (Repo.func repo fid)) in
  let fid_map = Array.make n_old None in
  let new_taken = Array.make n_new false in
  let by = ref (0, 0, 0) in
  let assign ~pass o n =
    fid_map.(o) <- Some n;
    new_taken.(n) <- true;
    let a, b, c = !by in
    by := (match pass with `Name -> (a + 1, b, c) | `Strict -> (a, b + 1, c) | `Loose -> (a, b, c + 1))
  in
  let olds = List.init n_old (fun i -> i) in
  let news = List.init n_new (fun i -> i) in
  let old_done o = fid_map.(o) <> None in
  let new_done = Array.get new_taken in
  (* pass 1a: same name AND same strict hash (identical twins stay aligned
     because pairing is positional within the hash group) *)
  pair_in_order
    ~key:(fun side i ->
      match side with
      | `Old -> (shape.sh_funcs.(i).sg_name, shape.sh_funcs.(i).sg_strict)
      | `New -> (new_sigs.(i).sg_name, new_sigs.(i).sg_strict))
    ~olds ~news ~old_done ~new_done
    ~assign:(assign ~pass:`Name);
  (* pass 1b: same name, body edited *)
  pair_in_order
    ~key:(fun side i ->
      match side with
      | `Old -> shape.sh_funcs.(i).sg_name
      | `New -> new_sigs.(i).sg_name)
    ~olds ~news ~old_done ~new_done
    ~assign:(assign ~pass:`Name);
  (* pass 2: renamed but byte-identical body (strict hash) *)
  pair_in_order
    ~key:(fun side i ->
      match side with
      | `Old -> shape.sh_funcs.(i).sg_strict
      | `New -> new_sigs.(i).sg_strict)
    ~olds ~news ~old_done ~new_done
    ~assign:(assign ~pass:`Strict);
  (* pass 3: renamed + id drift (loose hash) *)
  pair_in_order
    ~key:(fun side i ->
      match side with
      | `Old -> shape.sh_funcs.(i).sg_loose
      | `New -> new_sigs.(i).sg_loose)
    ~olds ~news ~old_done ~new_done
    ~assign:(assign ~pass:`Loose);
  let by_name, by_strict, by_loose = !by in
  (fid_map, new_sigs, by_name, by_strict, by_loose)

(* Blocks of one matched function pair; returns old bb -> new bb (or -1). *)
let match_blocks (old_sig : func_sig) (new_sig : func_sig) =
  let n_old = Array.length old_sig.sg_block_strict in
  let n_new = Array.length new_sig.sg_block_strict in
  let map = Array.make n_old (-1) in
  let taken = Array.make n_new false in
  let olds = List.init n_old (fun i -> i) in
  let news = List.init n_new (fun i -> i) in
  let old_done o = map.(o) >= 0 in
  let new_done = Array.get taken in
  let assign o n =
    map.(o) <- n;
    taken.(n) <- true
  in
  pair_in_order
    ~key:(fun side i ->
      match side with
      | `Old -> old_sig.sg_block_strict.(i)
      | `New -> new_sig.sg_block_strict.(i))
    ~olds ~news ~old_done ~new_done ~assign;
  pair_in_order
    ~key:(fun side i ->
      match side with
      | `Old -> old_sig.sg_block_loose.(i)
      | `New -> new_sig.sg_block_loose.(i))
    ~olds ~news ~old_done ~new_done ~assign;
  map

let transfer repo (shape : shape) (raw : Counters.raw) =
  let n_old = Array.length shape.sh_funcs in
  let n_new = Repo.n_funcs repo in
  let fid_map, new_sigs, by_name, by_strict, by_loose = match_funcs repo shape in
  let strict_match =
    Array.init n_old (fun o ->
        match fid_map.(o) with
        | Some n -> shape.sh_funcs.(o).sg_strict = new_sigs.(n).sg_strict
        | None -> false)
  in
  let counters = Counters.create repo in
  let old_ok fid = fid >= 0 && fid < n_old in
  let mapped fid = if old_ok fid then fid_map.(fid) else None in
  (* Feasibility gates, the same rule as Package_check's
     ({!Js_analysis.Verify.facts}), so an honest transfer is never
     over-pruned — but a transferred count can never land on a
     dataflow-dead block (P321) or infeasible edge (P320). *)
  let dfa =
    Array.init n_new (fun nfid -> lazy (Js_analysis.Verify.facts repo (Repo.func repo nfid)))
  in
  let dfa_of nfid = Lazy.force dfa.(nfid) in
  let new_blocks = Array.init n_new (fun nfid -> lazy (F.basic_blocks (Repo.func repo nfid))) in
  let blocks_of nfid = Lazy.force new_blocks.(nfid) in
  let block_maps = Hashtbl.create 64 in
  let block_map_of ofid nfid =
    match Hashtbl.find_opt block_maps ofid with
    | Some m -> m
    | None ->
      let m = match_blocks shape.sh_funcs.(ofid) new_sigs.(nfid) in
      Hashtbl.add block_maps ofid m;
      m
  in
  let entries_of = Hashtbl.create 64 in
  List.iter (fun (fid, e) -> Hashtbl.replace entries_of fid e) raw.rc_entries;
  let blocks_total = ref 0 and blocks_matched = ref 0 in
  let mass_in = ref 0 and mass_out = ref 0 in
  let arcs_dropped = ref 0 and sites_dropped = ref 0 and props_dropped = ref 0 in
  (* Per-function entry-ratio scale: for pairs whose bodies changed (not a
     strict match), the transferred entry-block count can disagree with the
     (exact) transferred entry counter.  When the new entry block has no
     predecessors it must execute exactly once per entry, so all
     transferred block/arc counts of the function are rescaled by
     entries/c0.  Strict-identical pairs skip this: their counts are
     already exact, which keeps a zero-churn transfer byte-identical. *)
  let scale_of = Hashtbl.create 16 in
  let scale ofid c =
    match Hashtbl.find_opt scale_of ofid with
    | None -> c
    | Some r -> int_of_float (Float.round (float_of_int c *. r))
  in
  (* blocks (and the scale factors, needed before arcs) *)
  let transferred_blocks = ref [] in
  List.iter
    (fun (ofid, counts) ->
      if old_ok ofid && Array.length counts = Array.length shape.sh_funcs.(ofid).sg_block_strict
      then begin
        blocks_total := !blocks_total + Array.length counts;
        Array.iter (fun c -> mass_in := !mass_in + c) counts;
        match mapped ofid with
        | None -> ()
        | Some nfid ->
          let bmap = block_map_of ofid nfid in
          let n_nb = Array.length (blocks_of nfid) in
          let arr = Array.make n_nb 0 in
          let reach =
            match dfa_of nfid with
            | Some s -> Some s.Js_analysis.Dataflow.reach
            | None -> None
          in
          Array.iteri
            (fun ob c ->
              let nb = bmap.(ob) in
              if nb >= 0 then begin
                incr blocks_matched;
                let live = match reach with Some r -> r.(nb) | None -> true in
                if live then arr.(nb) <- arr.(nb) + c
              end)
            counts;
          if not strict_match.(ofid) then begin
            match Hashtbl.find_opt entries_of ofid with
            | Some e when e > 0 ->
              let entry_has_preds =
                Array.exists (fun (b : F.block) -> List.mem 0 b.F.succs) (blocks_of nfid)
              in
              if (not entry_has_preds) && n_nb > 0 then begin
                let c0 = arr.(0) in
                if c0 = 0 then arr.(0) <- e
                else if c0 <> e then begin
                  let r = float_of_int e /. float_of_int c0 in
                  Hashtbl.replace scale_of ofid r;
                  Array.iteri
                    (fun i c -> arr.(i) <- int_of_float (Float.round (float_of_int c *. r)))
                    arr
                end
              end
            | _ -> ()
          end;
          Array.iter (fun c -> mass_out := !mass_out + c) arr;
          transferred_blocks := (nfid, arr) :: !transferred_blocks
      end)
    raw.rc_blocks;
  List.iter (fun (nfid, arr) -> Counters.import_block_counts counters nfid arr) !transferred_blocks;
  (* arcs: both endpoints matched, still a CFG edge, still feasible *)
  List.iter
    (fun (ofid, arcs) ->
      match mapped ofid with
      | None -> List.iter (fun _ -> incr arcs_dropped) arcs
      | Some nfid ->
        let bmap = block_map_of ofid nfid in
        let nb = blocks_of nfid in
        let n_ob = Array.length bmap in
        List.iter
          (fun (s, d, c) ->
            let ok =
              s >= 0 && s < n_ob && d >= 0 && d < n_ob
              && bmap.(s) >= 0
              && bmap.(d) >= 0
              && List.mem bmap.(d) nb.(bmap.(s)).F.succs
              &&
              match dfa_of nfid with
              | Some dfs -> Js_analysis.Dataflow.feasible_edge dfs ~src:bmap.(s) ~dst:bmap.(d)
              | None -> true
            in
            if ok then Counters.import_arc counters nfid ~src:bmap.(s) ~dst:bmap.(d) (scale ofid c)
            else incr arcs_dropped)
          arcs)
    raw.rc_arcs;
  (* call sites: follow the containing block, keep the intra-block offset,
     and require the landing pc to address a call instruction (P304) *)
  List.iter
    (fun ((ofid, site), targets) ->
      let drop () = incr sites_dropped in
      match mapped ofid with
      | None -> drop ()
      | Some nfid ->
        let osig = shape.sh_funcs.(ofid) in
        if site < 0 || site >= osig.sg_body_len || Array.length osig.sg_block_starts = 0 then
          drop ()
        else begin
          (* linear scan over block starts (bodies are small; [read_shape]
             checked that they rise from 0, so [site] lies in block [ob]) *)
          let ob = ref 0 in
          Array.iteri (fun i st -> if st <= site then ob := i) osig.sg_block_starts;
          let bmap = block_map_of ofid nfid in
          let nbid = if !ob < Array.length bmap then bmap.(!ob) else -1 in
          if nbid < 0 then drop ()
          else begin
            let nb = (blocks_of nfid).(nbid) in
            let delta = site - osig.sg_block_starts.(!ob) in
            let npc = nb.F.start + delta in
            let body = (Repo.func repo nfid).F.body in
            if delta >= nb.F.len || npc >= Array.length body then drop ()
            else
              match body.(npc) with
              | I.Call _ | I.CallMethod _ | I.New _ ->
                let any = ref false in
                List.iter
                  (fun (callee, c) ->
                    match mapped callee with
                    | Some ncallee ->
                      any := true;
                      Counters.import_call counters ~caller:nfid ~site:npc ~callee:ncallee c
                    | None -> ())
                  targets;
                if not !any then drop ()
              | _ -> drop ()
          end
        end)
    raw.rc_sites;
  (* entry + call-graph counters follow the function map directly *)
  List.iter
    (fun (ofid, e) ->
      match mapped ofid with
      | Some nfid -> Counters.import_entries counters nfid e
      | None -> ())
    raw.rc_entries;
  List.iter
    (fun (a, b, c) ->
      match (mapped a, mapped b) with
      | Some na, Some nb -> Counters.import_cg counters ~caller:na ~callee:nb c
      | _ -> ())
    raw.rc_cg;
  (* property counters: resolve class and property names through the shape *)
  let class_by_name = Hashtbl.create 16 in
  for cid = 0 to Repo.n_classes repo - 1 do
    let nm = (Repo.cls repo cid).Hhbc.Class_def.name in
    if not (Hashtbl.mem class_by_name nm) then Hashtbl.add class_by_name nm cid
  done;
  List.iter
    (fun (cid, nid, c) ->
      let resolved =
        if cid >= 0 && cid < Array.length shape.sh_class_names && nid >= 0
           && nid < Array.length shape.sh_names
        then
          match Hashtbl.find_opt class_by_name shape.sh_class_names.(cid) with
          | Some ncid -> (
            match Repo.find_name repo shape.sh_names.(nid) with
            | Some nnid -> Some (ncid, nnid)
            | None -> None)
          | None -> None
        else None
      in
      match resolved with
      | Some (ncid, nnid) -> Counters.import_prop counters ncid nnid c
      | None -> incr props_dropped)
    raw.rc_props;
  (* touched units: map by path, preserving first-touch order *)
  let unit_by_path = Hashtbl.create 16 in
  for uid = 0 to Repo.n_units repo - 1 do
    let p = (Repo.unit_of repo uid).Hhbc.Unit_def.path in
    if not (Hashtbl.mem unit_by_path p) then Hashtbl.add unit_by_path p uid
  done;
  let unit_map =
    Array.init (Array.length shape.sh_unit_paths) (fun uid ->
        Hashtbl.find_opt unit_by_path shape.sh_unit_paths.(uid))
  in
  let map_unit uid =
    if uid >= 0 && uid < Array.length unit_map then unit_map.(uid) else None
  in
  List.iter
    (fun uid ->
      match map_unit uid with
      | Some nuid -> Counters.record_unit_load counters nuid
      | None -> ())
    raw.rc_units;
  let remap_dedup ~f arr =
    let seen = Hashtbl.create 32 in
    let out = ref [] in
    Array.iter
      (fun x ->
        match f x with
        | Some y when not (Hashtbl.mem seen y) ->
          Hashtbl.add seen y ();
          out := y :: !out
        | _ -> ())
      arr;
    Array.of_list (List.rev !out)
  in
  let funcs_matched = by_name + by_strict + by_loose in
  let stats =
    {
      funcs_total = n_old;
      funcs_matched;
      funcs_by_name = by_name;
      funcs_by_strict_hash = by_strict;
      funcs_by_loose_hash = by_loose;
      blocks_total = !blocks_total;
      blocks_matched = !blocks_matched;
      counters_total = !mass_in;
      counters_transferred = !mass_out;
      arcs_dropped = !arcs_dropped;
      sites_dropped = !sites_dropped;
      props_dropped = !props_dropped;
    }
  in
  {
    counters;
    fid_map;
    strict_match;
    unit_map;
    func_order = remap_dedup ~f:mapped;
    preload_units = remap_dedup ~f:map_unit;
    stats;
  }

let pp_stats fmt st =
  Format.fprintf fmt
    "match[funcs %d/%d (name %d, hash %d, loose %d) blocks %d/%d mass %d/%d dropped a%d s%d p%d]"
    st.funcs_matched st.funcs_total st.funcs_by_name st.funcs_by_strict_hash
    st.funcs_by_loose_hash st.blocks_matched st.blocks_total st.counters_transferred
    st.counters_total st.arcs_dropped st.sites_dropped st.props_dropped
