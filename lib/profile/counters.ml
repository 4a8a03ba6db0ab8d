type t = {
  repo : Hhbc.Repo.t;
  (* per function: basic-block execution counts, allocated lazily *)
  blocks : int array option array;
  (* per function: (src_bb, dst_bb) -> count *)
  arcs : (int * int, int ref) Hashtbl.t array;
  (* (fid, site) -> callee -> count *)
  call_sites : (int * int, (int, int ref) Hashtbl.t) Hashtbl.t;
  entries : int array;
  (* caller -> callee -> count, aggregated *)
  cg : (int * int, int ref) Hashtbl.t;
  props : (int * int, int ref) Hashtbl.t;
  mutable touched_units_rev : int list;
  touched_unit_set : (int, unit) Hashtbl.t;
  mutable total_entries : int;
}

let create repo =
  let n = Hhbc.Repo.n_funcs repo in
  {
    repo;
    blocks = Array.make n None;
    arcs = Array.init n (fun _ -> Hashtbl.create 4);
    call_sites = Hashtbl.create 64;
    entries = Array.make n 0;
    cg = Hashtbl.create 64;
    props = Hashtbl.create 64;
    touched_units_rev = [];
    touched_unit_set = Hashtbl.create 16;
    total_entries = 0;
  }

let bump table key =
  match Hashtbl.find_opt table key with
  | Some r -> incr r
  | None -> Hashtbl.add table key (ref 1)

let block_array t fid =
  match t.blocks.(fid) with
  | Some a -> a
  | None ->
    let f = Hhbc.Repo.func t.repo fid in
    let n = Array.length (Hhbc.Func.basic_blocks f) in
    let a = Array.make n 0 in
    t.blocks.(fid) <- Some a;
    a

let record_block t fid bb =
  let a = block_array t fid in
  a.(bb) <- a.(bb) + 1

let record_arc t fid ~src ~dst = bump t.arcs.(fid) (src, dst)

let record_call t ~caller ~site ~callee =
  let key = (caller, site) in
  let targets =
    match Hashtbl.find_opt t.call_sites key with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create 4 in
      Hashtbl.add t.call_sites key tbl;
      tbl
  in
  bump targets callee;
  bump t.cg (caller, callee)

let record_func_entry t fid =
  t.entries.(fid) <- t.entries.(fid) + 1;
  t.total_entries <- t.total_entries + 1;
  let uid = (Hhbc.Repo.func t.repo fid).Hhbc.Func.unit_id in
  if not (Hashtbl.mem t.touched_unit_set uid) then begin
    Hashtbl.add t.touched_unit_set uid ();
    t.touched_units_rev <- uid :: t.touched_units_rev
  end

let record_prop_access t cid nid = bump t.props (cid, nid)

let record_unit_load t uid =
  if not (Hashtbl.mem t.touched_unit_set uid) then begin
    Hashtbl.add t.touched_unit_set uid ();
    t.touched_units_rev <- uid :: t.touched_units_rev
  end

let repo t = t.repo
let n_funcs t = Array.length t.entries

let call_site_list t =
  Hashtbl.fold (fun key _ acc -> key :: acc) t.call_sites [] |> List.sort compare

let prop_entries t =
  Hashtbl.fold (fun (cid, nid) count acc -> (cid, nid, !count) :: acc) t.props []
  |> List.sort compare

let block_counts t fid = Option.map Array.copy t.blocks.(fid)

let arc_counts t fid =
  Hashtbl.fold (fun (src, dst) count acc -> (src, dst, !count) :: acc) t.arcs.(fid) []
  |> List.sort compare

let call_targets t fid site =
  match Hashtbl.find_opt t.call_sites (fid, site) with
  | None -> []
  | Some tbl ->
    Hashtbl.fold (fun callee count acc -> (callee, !count) :: acc) tbl []
    |> List.sort (fun (ia, ca) (ib, cb) -> if ca <> cb then compare cb ca else compare ia ib)

let dominant_target t fid site =
  match call_targets t fid site with
  | [] -> None
  | (callee, count) :: _ as all ->
    let total = List.fold_left (fun acc (_, c) -> acc + c) 0 all in
    Some (callee, float_of_int count /. float_of_int total)

let func_entries t fid = t.entries.(fid)

let call_graph t =
  Hashtbl.fold (fun (caller, callee) count acc -> (caller, callee, !count) :: acc) t.cg []
  |> List.sort compare

let prop_access_count t cid nid =
  match Hashtbl.find_opt t.props (cid, nid) with Some r -> !r | None -> 0

let prop_hotness t cid nid =
  let total = ref 0 in
  for c = 0 to Hhbc.Repo.n_classes t.repo - 1 do
    if Hhbc.Repo.is_ancestor t.repo ~ancestor:cid ~cls:c then
      total := !total + prop_access_count t c nid
  done;
  !total

let prop_table t =
  Hashtbl.fold
    (fun (cid, nid) count acc ->
      let key =
        (Hhbc.Repo.cls t.repo cid).Hhbc.Class_def.name ^ "::" ^ Hhbc.Repo.name t.repo nid
      in
      (key, !count) :: acc)
    t.props []

let profiled_funcs t =
  let all = ref [] in
  Array.iteri (fun fid e -> if e > 0 then all := fid :: !all) t.entries;
  List.sort (fun a b -> compare t.entries.(b) t.entries.(a)) !all

let touched_units t = List.rev t.touched_units_rev
let total_entries t = t.total_entries

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

let import_arc t fid ~src ~dst count =
  match Hashtbl.find_opt t.arcs.(fid) (src, dst) with
  | Some r -> r := !r + count
  | None -> Hashtbl.add t.arcs.(fid) (src, dst) (ref count)

let import_call t ~caller ~site ~callee count =
  let key = (caller, site) in
  let targets =
    match Hashtbl.find_opt t.call_sites key with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create 4 in
      Hashtbl.add t.call_sites key tbl;
      tbl
  in
  (match Hashtbl.find_opt targets callee with
  | Some r -> r := !r + count
  | None -> Hashtbl.add targets callee (ref count))

let import_cg t ~caller ~callee count =
  match Hashtbl.find_opt t.cg (caller, callee) with
  | Some r -> r := !r + count
  | None -> Hashtbl.add t.cg (caller, callee) (ref count)

let import_entries t fid e =
  t.total_entries <- t.total_entries - t.entries.(fid) + e;
  t.entries.(fid) <- e

let import_prop t cid nid count =
  match Hashtbl.find_opt t.props (cid, nid) with
  | Some r -> r := !r + count
  | None -> Hashtbl.add t.props (cid, nid) (ref count)

let copy_tbl tbl =
  let fresh = Hashtbl.create (Hashtbl.length tbl) in
  Hashtbl.iter (fun k v -> Hashtbl.add fresh k (ref !v)) tbl;
  fresh

let copy t =
  {
    repo = t.repo;
    blocks = Array.map (Option.map Array.copy) t.blocks;
    arcs = Array.map copy_tbl t.arcs;
    call_sites =
      (let fresh = Hashtbl.create (Hashtbl.length t.call_sites) in
       Hashtbl.iter (fun k tbl -> Hashtbl.add fresh k (copy_tbl tbl)) t.call_sites;
       fresh);
    entries = Array.copy t.entries;
    cg = copy_tbl t.cg;
    props = copy_tbl t.props;
    touched_units_rev = t.touched_units_rev;
    touched_unit_set = Hashtbl.copy t.touched_unit_set;
    total_entries = t.total_entries;
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
  Array.iteri (fun fid tbl -> if Hashtbl.length tbl > 0 then with_arcs := fid :: !with_arcs) t.arcs;
  W.list w
    (fun fid ->
      W.varint w fid;
      let entries = Hashtbl.fold (fun (s, d) c acc -> (s, d, !c) :: acc) t.arcs.(fid) [] in
      W.list w
        (fun (s, d, c) ->
          W.varint w s;
          W.varint w d;
          W.varint w c)
        (List.sort compare entries))
    (List.rev !with_arcs);
  (* section 3: call-target profiles *)
  let sites = Hashtbl.fold (fun key tbl acc -> (key, tbl) :: acc) t.call_sites [] in
  W.list w
    (fun ((fid, site), tbl) ->
      W.varint w fid;
      W.varint w site;
      let targets = Hashtbl.fold (fun callee c acc -> (callee, !c) :: acc) tbl [] in
      W.list w
        (fun (callee, c) ->
          W.varint w callee;
          W.varint w c)
        (List.sort compare targets))
    (List.sort compare sites);
  (* section 4: entry counters (sparse) *)
  let entries = ref [] in
  Array.iteri (fun fid e -> if e > 0 then entries := (fid, e) :: !entries) t.entries;
  W.list w
    (fun (fid, e) ->
      W.varint w fid;
      W.varint w e)
    (List.rev !entries);
  (* section 5: tier-1 call graph *)
  let cg = Hashtbl.fold (fun (a, b) c acc -> (a, b, !c) :: acc) t.cg [] in
  W.list w
    (fun (a, b, c) ->
      W.varint w a;
      W.varint w b;
      W.varint w c)
    (List.sort compare cg);
  (* section 6: property access counters *)
  let props = Hashtbl.fold (fun (cid, nid) c acc -> (cid, nid, !c) :: acc) t.props [] in
  W.list w
    (fun (cid, nid, c) ->
      W.varint w cid;
      W.varint w nid;
      W.varint w c)
    (List.sort compare props);
  (* section 7: touched units in first-touch order *)
  W.list w (fun uid -> W.varint w uid) (touched_units t)

let deserialize repo r =
  let t = create repo in
  let corrupt msg = raise (Js_util.Binio.Corrupt msg) in
  let n_funcs = Hhbc.Repo.n_funcs repo in
  let check_fid fid = if fid < 0 || fid >= n_funcs then corrupt "function id out of range" in
  let blocks_of fid =
    let f = Hhbc.Repo.func repo fid in
    Array.length (Hhbc.Func.basic_blocks f)
  in
  List.iter ignore
    (Rd.list r (fun r ->
         let fid = Rd.varint r in
         check_fid fid;
         let counts = Rd.array r (fun r -> Rd.varint r) in
         if Array.length counts <> blocks_of fid then corrupt "block counter arity mismatch";
         t.blocks.(fid) <- Some counts));
  List.iter ignore
    (Rd.list r (fun r ->
         let fid = Rd.varint r in
         check_fid fid;
         let n_blocks = blocks_of fid in
         List.iter
           (fun (s, d, c) ->
             if s >= n_blocks || d >= n_blocks then corrupt "arc endpoint out of range";
             Hashtbl.replace t.arcs.(fid) (s, d) (ref c))
           (Rd.list r (fun r ->
                let s = Rd.varint r in
                let d = Rd.varint r in
                let c = Rd.varint r in
                (s, d, c)))));
  List.iter ignore
    (Rd.list r (fun r ->
         let fid = Rd.varint r in
         check_fid fid;
         let site = Rd.varint r in
         if site >= Array.length (Hhbc.Repo.func repo fid).Hhbc.Func.body then
           corrupt "call site out of range";
         let tbl = Hashtbl.create 4 in
         List.iter
           (fun (callee, c) ->
             check_fid callee;
             Hashtbl.replace tbl callee (ref c))
           (Rd.list r (fun r ->
                let callee = Rd.varint r in
                let c = Rd.varint r in
                (callee, c)));
         Hashtbl.replace t.call_sites (fid, site) tbl));
  List.iter
    (fun (fid, e) ->
      check_fid fid;
      t.entries.(fid) <- e;
      t.total_entries <- t.total_entries + e)
    (Rd.list r (fun r ->
         let fid = Rd.varint r in
         let e = Rd.varint r in
         (fid, e)));
  List.iter
    (fun (a, b, c) ->
      check_fid a;
      check_fid b;
      Hashtbl.replace t.cg (a, b) (ref c))
    (Rd.list r (fun r ->
         let a = Rd.varint r in
         let b = Rd.varint r in
         let c = Rd.varint r in
         (a, b, c)));
  List.iter
    (fun (cid, nid, c) ->
      if cid < 0 || cid >= Hhbc.Repo.n_classes repo then corrupt "class id out of range";
      if nid < 0 || nid >= Hhbc.Repo.n_names repo then corrupt "property name id out of range";
      Hashtbl.replace t.props (cid, nid) (ref c))
    (Rd.list r (fun r ->
         let cid = Rd.varint r in
         let nid = Rd.varint r in
         let c = Rd.varint r in
         (cid, nid, c)));
  List.iter
    (fun uid ->
      if uid < 0 || uid >= Hhbc.Repo.n_units repo then corrupt "unit id out of range";
      record_unit_load t uid)
    (Rd.list r (fun r -> Rd.varint r));
  t
