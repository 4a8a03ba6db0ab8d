type block = { id : int; size : int; weight : float }
type arc = { src : int; dst : int; weight : float }

type t = {
  blocks : block array;
  arcs : arc array;
  entry : int;
  succ_index : arc list array;
}

(* A count the layout can trust: finite and non-negative (NaN fails both). *)
let count_ok w = Float.is_finite w && w >= 0.

let create ~blocks ~arcs ~entry =
  let n = Array.length blocks in
  Array.iteri
    (fun i b ->
      if b.id <> i then invalid_arg "Cfg.create: blocks must be indexed by id";
      if b.size < 0 then invalid_arg "Cfg.create: negative block size";
      if not (count_ok b.weight) then
        invalid_arg "Cfg.create: block weight not finite and non-negative")
    blocks;
  if entry < 0 || entry >= n then invalid_arg "Cfg.create: entry out of range";
  Array.iter
    (fun a ->
      if a.src < 0 || a.src >= n || a.dst < 0 || a.dst >= n then
        invalid_arg "Cfg.create: arc endpoint out of range";
      if not (count_ok a.weight) then
        invalid_arg "Cfg.create: arc weight not finite and non-negative")
    arcs;
  let succ_index = Array.make n [] in
  Array.iter (fun a -> succ_index.(a.src) <- a :: succ_index.(a.src)) arcs;
  (* reverse so succs come back in insertion order *)
  Array.iteri (fun i l -> succ_index.(i) <- List.rev l) succ_index;
  { blocks; arcs; entry; succ_index }

let blocks t = t.blocks
let arcs t = t.arcs
let entry t = t.entry
let n_blocks t = Array.length t.blocks
let succs t id = t.succ_index.(id)

let pp fmt t =
  Format.fprintf fmt "@[<v 2>cfg (%d blocks, entry %d):" (Array.length t.blocks) t.entry;
  Array.iter
    (fun b ->
      Format.fprintf fmt "@,b%d size=%d w=%.0f ->" b.id b.size b.weight;
      List.iter (fun a -> Format.fprintf fmt " b%d(%.0f)" a.dst a.weight) t.succ_index.(b.id))
    t.blocks;
  Format.fprintf fmt "@]"
