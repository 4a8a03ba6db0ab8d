module I = Hhbc.Instr
module F = Hhbc.Func
module D = Diag

(* The per-instruction operand-stack effect, (pops, pushes).  Exhaustive on
   purpose: a new instruction must state its effect here before the verifier
   (and therefore the engine's translated fast path) will accept it. *)
let stack_effect : I.t -> int * int = function
  | I.Nop -> (0, 0)
  | I.LitInt _ -> (0, 1)
  | I.LitFloat _ -> (0, 1)
  | I.LitBool _ -> (0, 1)
  | I.LitNull -> (0, 1)
  | I.LitStr _ -> (0, 1)
  | I.LitArr _ -> (0, 1)
  | I.LoadLoc _ -> (0, 1)
  | I.StoreLoc _ -> (1, 0)
  | I.Pop -> (1, 0)
  | I.Dup -> (1, 2)
  | I.BinOp _ -> (2, 1)
  | I.UnOp _ -> (1, 1)
  | I.Jmp _ -> (0, 0)
  | I.JmpZ _ -> (1, 0)
  | I.JmpNZ _ -> (1, 0)
  | I.Call (_, n) -> (n, 1)
  | I.CallMethod (_, n) -> (n + 1, 1)
  | I.New (_, n) -> (n, 1)
  | I.GetThis -> (0, 1)
  | I.GetProp _ -> (1, 1)
  | I.SetProp _ -> (2, 0)
  | I.NewVec n -> (n, 1)
  | I.VecGet -> (2, 1)
  | I.VecSet -> (3, 0)
  | I.VecPush -> (2, 0)
  | I.VecLen -> (1, 1)
  | I.NewDict n -> (2 * n, 1)
  | I.DictGet -> (2, 1)
  | I.DictSet -> (3, 0)
  | I.DictHas -> (2, 1)
  | I.InstanceOf _ -> (1, 1)
  | I.Cast _ -> (1, 1)
  | I.Print -> (1, 0)
  | I.Ret -> (1, 0)

(* Simulate one basic block from a known entry depth.  [on_instr] fires
   before each instruction with the depth on entry to it.  Depth is clamped
   at zero after an underflow so the walk can continue deterministically. *)
let sim_block (f : F.t) (blk : F.block) ~depth ~on_instr =
  let d = ref depth in
  for pc = blk.F.start to blk.F.start + blk.F.len - 1 do
    let instr = f.F.body.(pc) in
    on_instr pc instr !d;
    let pops, pushes = stack_effect instr in
    d := max 0 (!d - pops) + pushes
  done;
  !d

let check_func repo (f : F.t) =
  let fid = f.F.id in
  let name = f.F.name in
  let n = Array.length f.F.body in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let err ~pc code msg = add (D.error ~fid ~pc code msg) in
  let warn ~pc code msg = add (D.warning ~fid ~pc code msg) in
  if n = 0 then [ D.error ~fid "V107" (Printf.sprintf "function %s: empty body" name) ]
  else begin
    if f.F.n_params > f.F.n_locals then
      add
        (D.error ~fid "V108"
           (Printf.sprintf "function %s: n_params (%d) > n_locals (%d)" name f.F.n_params
              f.F.n_locals));
    let n_funcs = Hhbc.Repo.n_funcs repo in
    let n_classes = Hhbc.Repo.n_classes repo in
    let n_strings = Hhbc.Repo.n_strings repo in
    let n_arrays = Hhbc.Repo.n_static_arrays repo in
    let n_names = Hhbc.Repo.n_names repo in
    let jumps_ok = ref true in
    (* phase 1: per-instruction bounds and repo-link resolution.  Jump bounds
       must be validated before CFG construction: [Func.basic_blocks] indexes
       its block map with raw branch targets. *)
    Array.iteri
      (fun pc instr ->
        List.iter
          (fun target ->
            if target < 0 || target >= n then begin
              jumps_ok := false;
              err ~pc "V101"
                (Printf.sprintf "function %s: jump target %d out of range [0, %d)" name target n)
            end)
          (I.branch_targets instr);
        match instr with
        | I.LoadLoc l | I.StoreLoc l ->
          if l < 0 || l >= f.F.n_locals then
            err ~pc "V106"
              (Printf.sprintf "function %s: local %d out of range (%d locals)" name l f.F.n_locals)
        | I.LitStr sid ->
          if sid < 0 || sid >= n_strings then
            err ~pc "V203" (Printf.sprintf "function %s: string id s%d unresolvable" name sid)
        | I.LitArr aid ->
          if aid < 0 || aid >= n_arrays then
            err ~pc "V205" (Printf.sprintf "function %s: static array id a%d unresolvable" name aid)
        | I.Call (callee, k) ->
          if callee < 0 || callee >= n_funcs then
            err ~pc "V201" (Printf.sprintf "function %s: call of unknown function f%d" name callee)
          else begin
            let callee_f = Hhbc.Repo.func repo callee in
            if k <> callee_f.F.n_params then
              err ~pc "V208"
                (Printf.sprintf "function %s: calls %s with %d arguments (expects %d)" name
                   callee_f.F.name k callee_f.F.n_params)
          end
        | I.CallMethod (nid, _) ->
          if nid < 0 || nid >= n_names then
            err ~pc "V204" (Printf.sprintf "function %s: method name id n%d unresolvable" name nid)
        | I.New (cid, k) ->
          if cid < 0 || cid >= n_classes then
            err ~pc "V202" (Printf.sprintf "function %s: new of unknown class c%d" name cid)
          else (
            match Hhbc.Repo.ctor_of repo cid with
            | None ->
              if k > 0 then
                err ~pc "V206"
                  (Printf.sprintf "function %s: new %s with %d arguments but no constructor" name
                     (Hhbc.Repo.cls repo cid).Hhbc.Class_def.name k)
            | Some ctor ->
              let ctor_f = Hhbc.Repo.func repo ctor in
              if k <> ctor_f.F.n_params then
                err ~pc "V207"
                  (Printf.sprintf "function %s: new %s with %d arguments (constructor expects %d)"
                     name
                     (Hhbc.Repo.cls repo cid).Hhbc.Class_def.name k ctor_f.F.n_params))
        | I.InstanceOf cid ->
          if cid < 0 || cid >= n_classes then
            err ~pc "V202" (Printf.sprintf "function %s: instanceof unknown class c%d" name cid)
        | I.GetProp nid | I.SetProp nid ->
          if nid < 0 || nid >= n_names then
            err ~pc "V204" (Printf.sprintf "function %s: property name id n%d unresolvable" name nid)
        | I.Nop | I.LitInt _ | I.LitFloat _ | I.LitBool _ | I.LitNull | I.Pop | I.Dup
        | I.BinOp _ | I.UnOp _ | I.Jmp _ | I.JmpZ _ | I.JmpNZ _ | I.GetThis | I.NewVec _
        | I.VecGet | I.VecSet | I.VecPush | I.VecLen | I.NewDict _ | I.DictGet | I.DictSet
        | I.DictHas | I.Cast _ | I.Print | I.Ret ->
          ())
      f.F.body;
    (* phase 2: fall-off-the-end.  Only Ret and an unconditional Jmp cannot
       continue past the last slot; a conditional jump falls through when not
       taken, which here means running off the body. *)
    (match f.F.body.(n - 1) with
    | I.Ret | I.Jmp _ -> ()
    | _ ->
      err ~pc:(n - 1) "V104"
        (Printf.sprintf "function %s: execution can fall off the end of the body" name));
    (* phase 3: CFG dataflow — must-equal stack depth and reachability.
       Requires in-range jump targets (phase 1). *)
    if !jumps_ok then begin
      let blocks = F.basic_blocks f in
      let nb = Array.length blocks in
      let in_depth = Array.make nb (-1) in
      let mismatch = Array.make nb false in
      let queue = Queue.create () in
      in_depth.(0) <- 0;
      Queue.add 0 queue;
      while not (Queue.is_empty queue) do
        let b = Queue.pop queue in
        let out = sim_block f blocks.(b) ~depth:in_depth.(b) ~on_instr:(fun _ _ _ -> ()) in
        List.iter
          (fun s ->
            if in_depth.(s) < 0 then begin
              in_depth.(s) <- out;
              Queue.add s queue
            end
            else if in_depth.(s) <> out && not mismatch.(s) then begin
              mismatch.(s) <- true;
              err ~pc:blocks.(s).F.start "V103"
                (Printf.sprintf
                   "function %s: must-equal stack depth violated at join (block %d entered with \
                    depth %d and %d)"
                   name s in_depth.(s) out)
            end)
          blocks.(b).F.succs
      done;
      (* reporting pass over the converged states *)
      for b = 0 to nb - 1 do
        if in_depth.(b) < 0 then
          warn ~pc:blocks.(b).F.start "V109"
            (Printf.sprintf "function %s: unreachable block %d" name b)
        else begin
          let underflowed = ref false in
          ignore
            (sim_block f blocks.(b) ~depth:in_depth.(b) ~on_instr:(fun pc instr d ->
                 let pops, _ = stack_effect instr in
                 if d < pops && not !underflowed then begin
                   underflowed := true;
                   err ~pc "V102"
                     (Printf.sprintf "function %s: stack underflow (depth %d, instruction pops %d)"
                        name d pops)
                 end;
                 match instr with
                 | I.Ret when d <> 1 && not !underflowed ->
                   warn ~pc "V110"
                     (Printf.sprintf "function %s: stack depth %d at Ret (expected 1)" name d)
                 | _ -> ()))
        end
      done
    end;
    D.sort !diags
  end

(* The engine's compile gate and [facts] ask for the same verdicts, once
   per engine and once per profiled function per boot. *)
let first_error =
  Dataflow.memoize (fun repo f ->
      match D.errors (check_func repo f) with [] -> None | first :: _ -> Some first)

(* The one rule for which dataflow facts may gate a profile: a summary
   counts only for a verifier-clean body whose analysis converged, so an
   imprecise or broken body never rejects or prunes an honest count. *)
let facts repo f =
  if first_error repo f <> None then None
  else
    let s = Dataflow.analyze repo f in
    if s.Dataflow.converged then Some s else None

let check_repo repo =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let n_funcs = Hhbc.Repo.n_funcs repo in
  let n_classes = Hhbc.Repo.n_classes repo in
  let n_units = Hhbc.Repo.n_units repo in
  let n_names = Hhbc.Repo.n_names repo in
  for cid = 0 to n_classes - 1 do
    let c = Hhbc.Repo.cls repo cid in
    let cerr msg = add (D.error "V209" (Printf.sprintf "class %s: %s" c.Hhbc.Class_def.name msg)) in
    (match c.Hhbc.Class_def.parent with
    | Some p when p < 0 || p >= n_classes -> cerr (Printf.sprintf "parent c%d unresolvable" p)
    | Some _ | None -> ());
    Array.iter
      (fun (nid, mfid) ->
        if nid < 0 || nid >= n_names then cerr (Printf.sprintf "method name id n%d unresolvable" nid);
        if mfid < 0 || mfid >= n_funcs then cerr (Printf.sprintf "method body f%d unresolvable" mfid))
      c.Hhbc.Class_def.methods;
    Array.iter
      (fun (p : Hhbc.Class_def.prop) ->
        if p.Hhbc.Class_def.prop_name < 0 || p.Hhbc.Class_def.prop_name >= n_names then
          cerr (Printf.sprintf "property name id n%d unresolvable" p.Hhbc.Class_def.prop_name))
      c.Hhbc.Class_def.props;
    if c.Hhbc.Class_def.unit_id < 0 || c.Hhbc.Class_def.unit_id >= n_units then
      cerr (Printf.sprintf "unit id u%d unresolvable" c.Hhbc.Class_def.unit_id)
  done;
  for fid = 0 to n_funcs - 1 do
    let f = Hhbc.Repo.func repo fid in
    if f.F.unit_id < 0 || f.F.unit_id >= n_units then
      add
        (D.error ~fid "V210"
           (Printf.sprintf "function %s: unit id u%d unresolvable" f.F.name f.F.unit_id));
    (match f.F.class_id with
    | Some cid when cid < 0 || cid >= n_classes ->
      add
        (D.error ~fid "V210"
           (Printf.sprintf "function %s: class id c%d unresolvable" f.F.name cid))
    | Some _ | None -> ());
    diags := check_func repo f @ !diags
  done;
  D.sort !diags

let check_inline_tree repo (vf : Vasm.Vfunc.t) =
  let fid = vf.Vasm.Vfunc.root_fid in
  let tree = vf.Vasm.Vfunc.tree in
  let nodes = Vasm.Inline_tree.nodes tree in
  let n_nodes = Array.length nodes in
  let n_funcs = Hhbc.Repo.n_funcs repo in
  let diags = ref [] in
  let err msg = diags := D.error ~fid "P312" msg :: !diags in
  let root = Vasm.Inline_tree.root tree in
  if root.Vasm.Inline_tree.fid <> fid then
    err
      (Printf.sprintf "inline tree rooted at f%d but translation is for f%d"
         root.Vasm.Inline_tree.fid fid);
  Array.iter
    (fun (node : Vasm.Inline_tree.node) ->
      if node.Vasm.Inline_tree.fid < 0 || node.Vasm.Inline_tree.fid >= n_funcs then
        err
          (Printf.sprintf "inline tree node %d references unknown function f%d"
             node.Vasm.Inline_tree.node_id node.Vasm.Inline_tree.fid)
      else
        match node.Vasm.Inline_tree.parent with
        | None ->
          if node.Vasm.Inline_tree.node_id <> root.Vasm.Inline_tree.node_id then
            err
              (Printf.sprintf "inline tree node %d has no parent but is not the root"
                 node.Vasm.Inline_tree.node_id)
        | Some (p, site) ->
          if p < 0 || p >= n_nodes then
            err
              (Printf.sprintf "inline tree node %d has unknown parent %d"
                 node.Vasm.Inline_tree.node_id p)
          else begin
            let pn = Vasm.Inline_tree.node tree p in
            (if pn.Vasm.Inline_tree.fid >= 0 && pn.Vasm.Inline_tree.fid < n_funcs then
               let body_len =
                 Array.length (Hhbc.Repo.func repo pn.Vasm.Inline_tree.fid).F.body
               in
               if site < 0 || site >= body_len then
                 err
                   (Printf.sprintf
                      "inline tree node %d inlined at site %d outside its parent's body (%d \
                       instructions)"
                      node.Vasm.Inline_tree.node_id site body_len));
            if not (List.mem (site, node.Vasm.Inline_tree.node_id) pn.Vasm.Inline_tree.children)
            then
              err
                (Printf.sprintf "inline tree node %d missing from parent %d's children"
                   node.Vasm.Inline_tree.node_id p)
          end)
    nodes;
  D.sort !diags
