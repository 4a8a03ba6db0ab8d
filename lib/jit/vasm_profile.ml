module VF = Vasm.Vfunc
module P = Interp.Probes

(* A root's arcs are one {!Interp.Probes.arcs} store: any destination is
   accepted, since inline returns and slow-path entries are arcs outside
   the successor lists, and a deserialized store holds whatever the
   package says. *)
type t = {
  blocks : (int, float array) Hashtbl.t;  (* root fid -> per-block counts *)
  arcs : (int, P.arcs) Hashtbl.t;  (* root fid -> arc counts *)
  cg : (int, (int, int ref) Hashtbl.t) Hashtbl.t;  (* caller root -> callee -> count *)
  entries : (int, int ref) Hashtbl.t;
}

let create () =
  { blocks = Hashtbl.create 64; arcs = Hashtbl.create 64; cg = Hashtbl.create 64; entries = Hashtbl.create 64 }

(* [vf]'s recorded block counts, when they fit its blocks. *)
let recorded t (vf : VF.t) =
  match Hashtbl.find_opt t.blocks vf.VF.root_fid with
  | Some a when Array.length a = VF.n_blocks vf -> Some a
  | Some _ | None -> None

(* The recording sink's block counts: a translation with none, or with
   counts of another shape, starts from zeros. *)
let block_array t (vf : VF.t) =
  match recorded t vf with
  | Some a -> a
  | None ->
    let a = Array.make (VF.n_blocks vf) 0. in
    Hashtbl.replace t.blocks vf.VF.root_fid a;
    a

let find_or_add tbl key fresh =
  match Hashtbl.find tbl key with
  | v -> v
  | exception Not_found ->
    let v = fresh () in
    Hashtbl.add tbl key v;
    v

let counter () = ref 0

(* A translation's block counts and arc store are resolved on its first
   block or arc event, so a translation entered without running a main
   block gains no [blocks] entry, and one without an arc no [arcs] entry. *)
let handler t =
  {
    Context.translation =
      (fun vf ->
        P.Count
          {
            counts = (fun () -> block_array t vf);
            arcs = (fun () -> find_or_add t.arcs vf.VF.root_fid P.new_arcs);
          });
    xcalls =
      Some
        {
          P.entry = (fun fid -> find_or_add t.entries fid counter);
          edge =
            (fun ~caller ~callee ->
              find_or_add (find_or_add t.cg caller (fun () -> Hashtbl.create 8)) callee counter);
        };
    data = None;
  }

(* The readers below store nothing: a translation without fitting counts
   reads as zeros. *)
let block_weights t vf =
  match recorded t vf with Some a -> Array.copy a | None -> Array.make (VF.n_blocks vf) 0.

(* [(src, dst, count)] of one root's arcs, sorted *)
let arc_list (a : P.arcs) =
  Hashtbl.fold
    (fun src (r : P.arc_row) acc ->
      List.init r.len (fun i -> (src, r.dsts.(i), a.count.(r.slots.(i)))) @ acc)
    a.rows []
  |> List.sort compare

let arc_weight t (vf : VF.t) (src, dst) =
  match Hashtbl.find_opt t.arcs vf.VF.root_fid with
  | None -> 0.
  | Some a -> ( match P.arc_find a ~src ~dst with -1 -> 0. | slot -> a.count.(slot))

let to_cfg t (vf : VF.t) =
  let weight = match recorded t vf with Some a -> fun b -> a.(b) | None -> fun _ -> 0. in
  let blocks =
    Array.map (fun (b : VF.block) -> { Layout.Cfg.id = b.VF.id; size = b.VF.size; weight = weight b.VF.id }) vf.VF.blocks
  in
  let arcs =
    Array.map (fun (src, dst) -> { Layout.Cfg.src; dst; weight = arc_weight t vf (src, dst) }) (VF.arcs vf)
  in
  Layout.Cfg.create ~blocks ~arcs ~entry:vf.VF.entry

let call_graph t =
  Hashtbl.fold
    (fun caller callees acc ->
      Hashtbl.fold (fun callee r acc -> (caller, callee, !r) :: acc) callees acc)
    t.cg []
  |> List.sort compare

let entry_count t fid = match Hashtbl.find_opt t.entries fid with Some r -> !r | None -> 0

let profiled_blocks t =
  Hashtbl.fold (fun fid a acc -> (fid, Array.copy a) :: acc) t.blocks [] |> List.sort compare

let profiled_arcs t =
  Hashtbl.fold (fun fid table acc -> (fid, arc_list table) :: acc) t.arcs [] |> List.sort compare

let entry_counts t =
  Hashtbl.fold (fun fid c acc -> (fid, !c) :: acc) t.entries [] |> List.sort compare

let max_fid t =
  let m = ref (-1) in
  let see fid _ = m := max !m fid in
  Hashtbl.iter see t.blocks;
  Hashtbl.iter see t.arcs;
  Hashtbl.iter
    (fun caller callees ->
      see caller ();
      Hashtbl.iter see callees)
    t.cg;
  Hashtbl.iter see t.entries;
  !m

(* Stale-profile salvage: re-key every per-root-function table through the
   old-fid -> new-fid map.  Entries whose root (or either call-graph
   endpoint) does not map are dropped; block/arc indices are kept verbatim —
   the caller only remaps strict-identical matches, whose translations
   re-lower to the same shape, and Package_check's self-shape pass (P310/
   P311) guards the rest. *)
let remap t ~f =
  let out = create () in
  Hashtbl.iter
    (fun fid a -> match f fid with Some n -> Hashtbl.replace out.blocks n a | None -> ())
    t.blocks;
  Hashtbl.iter
    (fun fid tbl -> match f fid with Some n -> Hashtbl.replace out.arcs n tbl | None -> ())
    t.arcs;
  List.iter
    (fun (a, b, c) ->
      match (f a, f b) with
      | Some na, Some nb ->
        Hashtbl.replace (find_or_add out.cg na (fun () -> Hashtbl.create 8)) nb (ref c)
      | _ -> ())
    (call_graph t);
  Hashtbl.iter
    (fun fid c -> match f fid with Some n -> Hashtbl.replace out.entries n c | None -> ())
    t.entries;
  out

module W = Js_util.Binio.Writer
module Rd = Js_util.Binio.Reader

let serialize t w =
  W.list w
    (fun (fid, counts) ->
      W.varint w fid;
      W.array w (fun c -> W.f64 w c) counts)
    (profiled_blocks t);
  W.list w
    (fun (fid, entries) ->
      W.varint w fid;
      W.list w
        (fun (s, d, c) ->
          W.varint w s;
          W.varint w d;
          W.f64 w c)
        entries)
    (profiled_arcs t);
  W.list w
    (fun (a, b, c) ->
      W.varint w a;
      W.varint w b;
      W.varint w c)
    (call_graph t);
  W.list w
    (fun (fid, c) ->
      W.varint w fid;
      W.varint w c)
    (entry_counts t)

(* Layout takes only finite, non-negative counts ({!Layout.Cfg.create}). *)
let read_count r =
  let c = Rd.f64 r in
  if Float.is_finite c && c >= 0. then c
  else raise (Js_util.Binio.Corrupt "vasm profile: count not finite and non-negative")

let deserialize r =
  let t = create () in
  List.iter
    (fun (fid, counts) -> Hashtbl.replace t.blocks fid counts)
    (Rd.list r (fun r ->
         let fid = Rd.varint r in
         let counts = Rd.array r read_count in
         (fid, counts)));
  List.iter
    (fun (fid, entries) ->
      let a = P.new_arcs () in
      List.iter (fun (s, d, c) -> a.count.(P.arc_slot a ~src:s ~dst:d) <- c) entries;
      Hashtbl.replace t.arcs fid a)
    (Rd.list r (fun r ->
         let fid = Rd.varint r in
         let entries =
           Rd.list r (fun r ->
               let s = Rd.varint r in
               let d = Rd.varint r in
               let c = read_count r in
               (s, d, c))
         in
         (fid, entries)));
  List.iter
    (fun (a, b, c) -> Hashtbl.replace (find_or_add t.cg a (fun () -> Hashtbl.create 8)) b (ref c))
    (Rd.list r (fun r ->
         let a = Rd.varint r in
         let b = Rd.varint r in
         let c = Rd.varint r in
         (a, b, c)));
  List.iter
    (fun (fid, c) -> Hashtbl.replace t.entries fid (ref c))
    (Rd.list r (fun r ->
         let fid = Rd.varint r in
         let c = Rd.varint r in
         (fid, c)));
  t
