type role = Main | Slow

type block = {
  id : int;
  size : int;
  succs : int list;
  node : int;
  bb : int;
  role : role;
}

type t = {
  root_fid : Hhbc.Instr.fid;
  tree : Inline_tree.t;
  blocks : block array;
  entry : int;
  main_of : int array array;
  slow_of : int array array;
}

let code_size t = Array.fold_left (fun acc b -> acc + b.size) 0 t.blocks
let n_blocks t = Array.length t.blocks

let arcs t =
  let out = ref [] in
  Array.iter (fun b -> List.iter (fun dst -> out := (b.id, dst) :: !out) b.succs) t.blocks;
  Array.of_list (List.rev !out)

let block_of table ~node ~bb =
  if node < 0 || node >= Array.length table then None
  else
    let row = table.(node) in
    if bb < 0 || bb >= Array.length row || row.(bb) < 0 then None else Some row.(bb)

let main_block t ~node ~bb = block_of t.main_of ~node ~bb
let slow_block t ~node ~bb = block_of t.slow_of ~node ~bb

let pp_summary fmt t =
  Format.fprintf fmt "vfunc f%d: %d blocks, %d bytes, %d inlined bodies" t.root_fid
    (Array.length t.blocks) (code_size t) (Inline_tree.n_inlined t.tree)
