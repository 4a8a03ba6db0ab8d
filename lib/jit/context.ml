module IT = Vasm.Inline_tree
module VF = Vasm.Vfunc

type handler = {
  translation : VF.t -> Interp.Probes.sink;
  xcalls : Interp.Probes.xcalls option;
  on_prop : (addr:int -> write:bool -> unit) option;
}

(* [table.(node).(i)], or -1 outside the table *)
let cell table node i =
  if node < Array.length table && i >= 0 && i < Array.length table.(node) then table.(node).(i)
  else -1

(* instruction index -> bytecode block *)
let bb_of (fn : Hhbc.Func.t) =
  let m = Array.make (Array.length fn.Hhbc.Func.body) 0 in
  Array.iter
    (fun (b : Hhbc.Func.block) ->
      for i = b.start to b.start + b.len - 1 do
        m.(i) <- b.bb_id
      done)
    (Hhbc.Func.basic_blocks fn);
  m

(* A translation's tables, one row per inline node: its main blocks by
   bytecode block, and by call site of the node's function, the inlined
   child (-1: none) and the slow-path block of the site's bytecode block. *)
let resolve repo handler (vf : VF.t) =
  let nodes = IT.nodes vf.VF.tree in
  let fn (n : IT.node) = Hhbc.Repo.func repo n.IT.fid in
  let child =
    Array.map
      (fun (n : IT.node) ->
        let a = Array.make (Array.length (fn n).Hhbc.Func.body) (-1) in
        List.iter
          (fun (site, child) -> if site >= 0 && site < Array.length a then a.(site) <- child)
          n.IT.children;
        a)
      nodes
  in
  let slow =
    Array.mapi
      (fun node (n : IT.node) -> Array.map (fun bb -> cell vf.VF.slow_of node bb) (bb_of (fn n)))
      nodes
  in
  let main =
    Array.mapi (fun node _ -> if node < Array.length vf.VF.main_of then vf.VF.main_of.(node) else [||]) nodes
  in
  Interp.Probes.translation ~root:vf.VF.root_fid
    ~node_fid:(Array.map (fun (n : IT.node) -> n.IT.fid) nodes)
    ~main ~child ~slow (handler.translation vf)

let probes repo ~lookup handler =
  Interp.Probes.Tier2
    {
      lookup = (fun fid -> Option.map (resolve repo handler) (lookup fid));
      xcalls = handler.xcalls;
      on_prop = handler.on_prop;
    }
