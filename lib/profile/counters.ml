(* Small insertion-ordered maps from int keys to int counters: a source
   block's successors, a call site's callees, a caller's call-graph row, a
   class's properties.  Rows stay short (a handful of keys), so a lookup
   is a scan.  Each key owns one counter cell, which the interpreter's
   loop bumps in place once it has resolved it.  A key is present once
   added, whatever its count: a deserialized or imported zero count must
   survive [serialize]. *)
module Row = struct
  type t = { mutable keys : int array; mutable cells : int ref array; mutable len : int }

  let create () = { keys = [||]; cells = [||]; len = 0 }

  let copy r =
    { keys = Array.copy r.keys; cells = Array.map (fun c -> ref !c) r.cells; len = r.len }

  (* index of [key], or -1 *)
  let find r key =
    let i = ref 0 in
    while !i < r.len && r.keys.(!i) <> key do
      incr i
    done;
    if !i < r.len then !i else -1

  (* [key]'s counter, appended at 0 when absent *)
  let cell r key =
    let i = find r key in
    if i >= 0 then r.cells.(i)
    else begin
      if r.len = Array.length r.keys then begin
        let cap = max 2 (2 * r.len) in
        let keys = Array.make cap 0 and cells = Array.make cap (ref 0) in
        Array.blit r.keys 0 keys 0 r.len;
        Array.blit r.cells 0 cells 0 r.len;
        r.keys <- keys;
        r.cells <- cells
      end;
      let c = ref 0 in
      r.keys.(r.len) <- key;
      r.cells.(r.len) <- c;
      r.len <- r.len + 1;
      c
    end

  let add r key c =
    let cell = cell r key in
    cell := !cell + c

  let set r key c = cell r key := c
  let clear r = r.len <- 0
  let count r key = match find r key with -1 -> 0 | i -> !(r.cells.(i))

  (* [(key, count)] by ascending key *)
  let to_list r = List.sort compare (List.init r.len (fun i -> (r.keys.(i), !(r.cells.(i)))))
end

type t = {
  repo : Hhbc.Repo.t;
  (* per function: basic-block execution counts, allocated lazily *)
  blocks : int array option array;
  (* per function, per source block: destination -> count; [||] until the
     function's first arc *)
  arcs : Row.t array array;
  (* per function, per call site (instruction index): callee -> count; a
     site is present once recorded, even with no callee *)
  mutable sites : Row.t option array array;
  entries : int ref array;
  (* per caller: callee -> count, aggregated over sites *)
  mutable cg : Row.t array;
  (* per class: property name id -> count *)
  mutable props : Row.t array;
  mutable touched : bool array;  (* per unit *)
  mutable touched_units_rev : int list;
  total_entries : int ref;
}

let create repo =
  let n = Hhbc.Repo.n_funcs repo in
  {
    repo;
    blocks = Array.make n None;
    arcs = Array.make n [||];
    sites = Array.make n [||];
    entries = Array.init n (fun _ -> ref 0);
    cg = Array.init n (fun _ -> Row.create ());
    props = Array.init (Hhbc.Repo.n_classes repo) (fun _ -> Row.create ());
    touched = Array.make (Hhbc.Repo.n_units repo) false;
    touched_units_rev = [];
    total_entries = ref 0;
  }

(* Recording and import are total on ids beyond the repo (a forged
   profile's, which [deserialize] then rejects): the per-index tables below
   grow to cover them.  Ids are never negative. *)
let grown a i fresh =
  if i < 0 then invalid_arg "Counters: negative id";
  let n = Array.length a in
  Array.init (max (i + 1) n) (fun j -> if j < n then a.(j) else fresh ())

let block_array t fid =
  match t.blocks.(fid) with
  | Some a -> a
  | None ->
    let f = Hhbc.Repo.func t.repo fid in
    let n = Array.length (Hhbc.Func.basic_blocks f) in
    let a = Array.make n 0 in
    t.blocks.(fid) <- Some a;
    a

let arc_row t fid src =
  if src >= Array.length t.arcs.(fid) then begin
    let n_blocks = Array.length (Hhbc.Func.basic_blocks (Hhbc.Repo.func t.repo fid)) in
    t.arcs.(fid) <- grown t.arcs.(fid) (max src (n_blocks - 1)) Row.create
  end;
  t.arcs.(fid).(src)

let site_row t fid site =
  if fid >= Array.length t.sites then t.sites <- grown t.sites fid (fun () -> [||]);
  if site >= Array.length t.sites.(fid) then begin
    let body_len =
      if fid < Hhbc.Repo.n_funcs t.repo then Array.length (Hhbc.Repo.func t.repo fid).Hhbc.Func.body
      else 0
    in
    t.sites.(fid) <- grown t.sites.(fid) (max site (body_len - 1)) (fun () -> None)
  end;
  match t.sites.(fid).(site) with
  | Some r -> r
  | None ->
    let r = Row.create () in
    t.sites.(fid).(site) <- Some r;
    r

let cg_row t caller =
  if caller >= Array.length t.cg then t.cg <- grown t.cg caller Row.create;
  t.cg.(caller)

let record_unit_load t uid =
  if uid >= Array.length t.touched then t.touched <- grown t.touched uid (fun () -> false);
  if not t.touched.(uid) then begin
    t.touched.(uid) <- true;
    t.touched_units_rev <- uid :: t.touched_units_rev
  end

let prop_row t cid =
  if cid >= Array.length t.props then t.props <- grown t.props cid Row.create;
  t.props.(cid)

let recorder t =
  {
    Interp.Probes.func =
      (fun fid ->
        record_unit_load t (Hhbc.Repo.func t.repo fid).Hhbc.Func.unit_id;
        { Interp.Probes.blocks = block_array t fid; entries = t.entries.(fid) });
    total_entries = t.total_entries;
    arc = (fun fid ~src ~dst -> Row.cell (arc_row t fid src) dst);
    call =
      (fun ~caller ~site ~callee ->
        {
          Interp.Probes.callee;
          at_site = Row.cell (site_row t caller site) callee;
          in_graph = Row.cell (cg_row t caller) callee;
        });
    prop = (fun cid nid -> Row.cell (prop_row t cid) nid);
  }
let repo t = t.repo
let n_funcs t = Array.length t.entries

let call_site_list t =
  let acc = ref [] in
  for fid = Array.length t.sites - 1 downto 0 do
    let sites = t.sites.(fid) in
    for site = Array.length sites - 1 downto 0 do
      if Option.is_some sites.(site) then acc := (fid, site) :: !acc
    done
  done;
  !acc

let prop_entries t =
  let acc = ref [] in
  for cid = Array.length t.props - 1 downto 0 do
    acc := List.map (fun (nid, c) -> (cid, nid, c)) (Row.to_list t.props.(cid)) @ !acc
  done;
  !acc

let block_counts t fid = Option.map Array.copy t.blocks.(fid)

let arc_counts t fid =
  let rows = t.arcs.(fid) in
  let acc = ref [] in
  for src = Array.length rows - 1 downto 0 do
    acc := List.map (fun (dst, c) -> (src, dst, c)) (Row.to_list rows.(src)) @ !acc
  done;
  !acc

let site_targets t fid site =
  if fid < 0 || fid >= Array.length t.sites then None
  else
    let sites = t.sites.(fid) in
    if site < 0 || site >= Array.length sites then None else sites.(site)

let call_targets t fid site =
  match site_targets t fid site with
  | None -> []
  | Some r ->
    Row.to_list r
    |> List.sort (fun (ia, ca) (ib, cb) -> if ca <> cb then compare cb ca else compare ia ib)

let dominant_target t fid site =
  match call_targets t fid site with
  | [] -> None
  | (callee, count) :: _ as all ->
    let total = List.fold_left (fun acc (_, c) -> acc + c) 0 all in
    Some (callee, float_of_int count /. float_of_int total)

let func_entries t fid = !(t.entries.(fid))

let call_graph t =
  let acc = ref [] in
  for caller = Array.length t.cg - 1 downto 0 do
    acc := List.map (fun (callee, c) -> (caller, callee, c)) (Row.to_list t.cg.(caller)) @ !acc
  done;
  !acc

let prop_access_count t cid nid =
  if cid < 0 || cid >= Array.length t.props then 0 else Row.count t.props.(cid) nid

let prop_hotness t cid nid =
  let total = ref 0 in
  for c = 0 to Hhbc.Repo.n_classes t.repo - 1 do
    if Hhbc.Repo.is_ancestor t.repo ~ancestor:cid ~cls:c then
      total := !total + prop_access_count t c nid
  done;
  !total

let prop_table t =
  List.map
    (fun (cid, nid, count) ->
      ((Hhbc.Repo.cls t.repo cid).Hhbc.Class_def.name ^ "::" ^ Hhbc.Repo.name t.repo nid, count))
    (prop_entries t)

let profiled_funcs t =
  let all = ref [] in
  Array.iteri (fun fid e -> if !e > 0 then all := fid :: !all) t.entries;
  List.sort (fun a b -> compare !(t.entries.(b)) !(t.entries.(a))) !all

let touched_units t = List.rev t.touched_units_rev
let total_entries t = !(t.total_entries)

(* --- bulk import (stale-profile transfer) ---
   Absolute-count setters used by {!Stale_match.transfer} when rebuilding a
   counter set against a new repo from a matched stale profile.  They write
   the exact serialized representation (replace for vectors, add for sparse
   keys), so a lossless transfer round-trips byte-identically. *)

let import_block_counts t fid counts =
  let f = Hhbc.Repo.func t.repo fid in
  let n = Array.length (Hhbc.Func.basic_blocks f) in
  if Array.length counts <> n then invalid_arg "Counters.import_block_counts: arity mismatch";
  t.blocks.(fid) <- Some counts

let import_arc t fid ~src ~dst count = Row.add (arc_row t fid src) dst count
let import_call t ~caller ~site ~callee count = Row.add (site_row t caller site) callee count
let import_cg t ~caller ~callee count = Row.add (cg_row t caller) callee count

let import_entries t fid e =
  t.total_entries := !(t.total_entries) - !(t.entries.(fid)) + e;
  t.entries.(fid) := e

let import_prop t cid nid count = Row.add (prop_row t cid) nid count

let copy t =
  {
    repo = t.repo;
    blocks = Array.map (Option.map Array.copy) t.blocks;
    arcs = Array.map (Array.map Row.copy) t.arcs;
    sites = Array.map (Array.map (Option.map Row.copy)) t.sites;
    entries = Array.map (fun e -> ref !e) t.entries;
    cg = Array.map Row.copy t.cg;
    props = Array.map Row.copy t.props;
    touched = Array.copy t.touched;
    touched_units_rev = t.touched_units_rev;
    total_entries = ref !(t.total_entries);
  }

module W = Js_util.Binio.Writer
module Rd = Js_util.Binio.Reader

let serialize t w =
  (* section 1: per-function block counters *)
  let profiled = ref [] in
  Array.iteri (fun fid a -> match a with Some _ -> profiled := fid :: !profiled | None -> ()) t.blocks;
  let profiled = List.rev !profiled in
  W.list w
    (fun fid ->
      W.varint w fid;
      match t.blocks.(fid) with
      | Some counts -> W.array w (fun c -> W.varint w c) counts
      | None -> assert false)
    profiled;
  (* section 2: per-function arc counters *)
  let with_arcs = ref [] in
  for fid = Array.length t.arcs - 1 downto 0 do
    match arc_counts t fid with [] -> () | arcs -> with_arcs := (fid, arcs) :: !with_arcs
  done;
  W.list w
    (fun (fid, arcs) ->
      W.varint w fid;
      W.list w
        (fun (s, d, c) ->
          W.varint w s;
          W.varint w d;
          W.varint w c)
        arcs)
    !with_arcs;
  (* section 3: call-target profiles *)
  W.list w
    (fun (fid, site) ->
      W.varint w fid;
      W.varint w site;
      W.list w
        (fun (callee, c) ->
          W.varint w callee;
          W.varint w c)
        (match site_targets t fid site with Some r -> Row.to_list r | None -> []))
    (call_site_list t);
  (* section 4: entry counters (sparse) *)
  let entries = ref [] in
  Array.iteri (fun fid e -> if !e > 0 then entries := (fid, !e) :: !entries) t.entries;
  W.list w
    (fun (fid, e) ->
      W.varint w fid;
      W.varint w e)
    (List.rev !entries);
  (* section 5: tier-1 call graph *)
  W.list w
    (fun (a, b, c) ->
      W.varint w a;
      W.varint w b;
      W.varint w c)
    (call_graph t);
  (* section 6: property access counters *)
  W.list w
    (fun (cid, nid, c) ->
      W.varint w cid;
      W.varint w nid;
      W.varint w c)
    (prop_entries t);
  (* section 7: touched units in first-touch order *)
  W.list w (fun uid -> W.varint w uid) (touched_units t)

(* The seven sections as the bytes give them, before any id is checked. *)
type raw = {
  rc_blocks : (int * int array) list;
  rc_arcs : (int * (int * int * int) list) list;
  rc_sites : ((int * int) * (int * int) list) list;
  rc_entries : (int * int) list;
  rc_cg : (int * int * int) list;
  rc_props : (int * int * int) list;
  rc_units : int list;
}

let read_raw r =
  let triple r =
    let a = Rd.varint r in
    let b = Rd.varint r in
    let c = Rd.varint r in
    (a, b, c)
  in
  let pair r =
    let a = Rd.varint r in
    let b = Rd.varint r in
    (a, b)
  in
  let rc_blocks =
    Rd.list r (fun r ->
        let fid = Rd.varint r in
        (fid, Rd.array r Rd.varint))
  in
  let rc_arcs =
    Rd.list r (fun r ->
        let fid = Rd.varint r in
        (fid, Rd.list r triple))
  in
  let rc_sites =
    Rd.list r (fun r ->
        let site = pair r in
        (site, Rd.list r pair))
  in
  let rc_entries = Rd.list r pair in
  let rc_cg = Rd.list r triple in
  let rc_props = Rd.list r triple in
  let rc_units = Rd.list r Rd.varint in
  { rc_blocks; rc_arcs; rc_sites; rc_entries; rc_cg; rc_props; rc_units }

let of_raw repo raw =
  let t = create repo in
  let corrupt msg = raise (Js_util.Binio.Corrupt msg) in
  let n_funcs = Hhbc.Repo.n_funcs repo in
  let check_fid fid = if fid < 0 || fid >= n_funcs then corrupt "function id out of range" in
  let blocks_of fid =
    let f = Hhbc.Repo.func repo fid in
    Array.length (Hhbc.Func.basic_blocks f)
  in
  List.iter
    (fun (fid, counts) ->
      check_fid fid;
      if Array.length counts <> blocks_of fid then corrupt "block counter arity mismatch";
      t.blocks.(fid) <- Some counts)
    raw.rc_blocks;
  List.iter
    (fun (fid, arcs) ->
      check_fid fid;
      let n_blocks = blocks_of fid in
      List.iter
        (fun (s, d, c) ->
          if s >= n_blocks || d >= n_blocks then corrupt "arc endpoint out of range";
          Row.set (arc_row t fid s) d c)
        arcs)
    raw.rc_arcs;
  List.iter
    (fun ((fid, site), targets) ->
      check_fid fid;
      if site >= Array.length (Hhbc.Repo.func repo fid).Hhbc.Func.body then
        corrupt "call site out of range";
      (* a repeated site replaces the earlier one *)
      let row = site_row t fid site in
      Row.clear row;
      List.iter
        (fun (callee, c) ->
          check_fid callee;
          Row.set row callee c)
        targets)
    raw.rc_sites;
  List.iter
    (fun (fid, e) ->
      check_fid fid;
      t.entries.(fid) := e;
      t.total_entries := !(t.total_entries) + e)
    raw.rc_entries;
  List.iter
    (fun (a, b, c) ->
      check_fid a;
      check_fid b;
      Row.set t.cg.(a) b c)
    raw.rc_cg;
  List.iter
    (fun (cid, nid, c) ->
      if cid < 0 || cid >= Hhbc.Repo.n_classes repo then corrupt "class id out of range";
      if nid < 0 || nid >= Hhbc.Repo.n_names repo then corrupt "property name id out of range";
      Row.set t.props.(cid) nid c)
    raw.rc_props;
  List.iter
    (fun uid ->
      if uid < 0 || uid >= Hhbc.Repo.n_units repo then corrupt "unit id out of range";
      record_unit_load t uid)
    raw.rc_units;
  t

let deserialize repo r = of_raw repo (read_raw r)
