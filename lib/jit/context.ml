module IT = Vasm.Inline_tree
module VF = Vasm.Vfunc

type handler = {
  translation : VF.t -> Interp.Probes.sink;
  xcalls : Interp.Probes.xcalls option;
  data : Interp.Probes.data option;
}

(* A translation's tables, one row per inline node: its main blocks and
   its call sites' slow-path blocks by bytecode block, and by call site of
   the node's function, the inlined child (-1: none).  The block rows are
   the translation's own. *)
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
  let row table = Array.mapi (fun node _ -> if node < Array.length table then table.(node) else [||]) nodes in
  let slow = row vf.VF.slow_of and main = row vf.VF.main_of in
  Interp.Probes.translation ~root:vf.VF.root_fid
    ~node_fid:(Array.map (fun (n : IT.node) -> n.IT.fid) nodes)
    ~main ~child ~slow (handler.translation vf)

let probes repo ~lookup handler =
  Interp.Probes.Tier2
    {
      lookup = (fun fid -> Option.map (resolve repo handler) (lookup fid));
      xcalls = handler.xcalls;
      data = handler.data;
    }
