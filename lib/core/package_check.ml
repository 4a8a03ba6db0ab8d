module D = Js_analysis.Diag
module F = Hhbc.Func
module C = Jit_profile.Counters

let check repo (pkg : Package.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let n_funcs = Hhbc.Repo.n_funcs repo in
  let n_units = Hhbc.Repo.n_units repo in
  let fid_ok fid = fid >= 0 && fid < n_funcs in
  let blocks_of fid = F.basic_blocks (Hhbc.Repo.func repo fid) in
  (* P300: the counter vectors must be sized for this repo.  Serialized
     packages can only get here with matching arity (decode enforces the
     shape header), but seeder self-validation checks in-memory packages. *)
  if C.n_funcs pkg.counters <> n_funcs then
    add
      (D.error "P300"
         (Printf.sprintf "counters sized for %d functions, repo has %d" (C.n_funcs pkg.counters)
            n_funcs));
  if C.n_funcs pkg.counters = n_funcs then begin
    (* P301/P302/P303: bytecode block and arc counters per profiled func.
       P320/P321: feasibility — dataflow facts over-approximate everything
       the interpreter can do, so a profile claiming execution along a
       statically infeasible edge (P320) or inside a dataflow-dead block
       (P321) cannot have been honestly collected against this repo.  The
       gate only consults {!Js_analysis.Verify.facts}, so it never rejects
       an honest profile. *)
    for fid = 0 to n_funcs - 1 do
      let blocks = lazy (blocks_of fid) in
      let dfa = lazy (Js_analysis.Verify.facts repo (Hhbc.Repo.func repo fid)) in
      (match C.block_counts pkg.counters fid with
      | None -> ()
      | Some counts ->
        let n_blocks = Array.length (Lazy.force blocks) in
        if Array.length counts <> n_blocks then
          add
            (D.error "P301" ~fid
               (Printf.sprintf "block counter vector has %d entries, function has %d blocks"
                  (Array.length counts) n_blocks))
        else
          match Lazy.force dfa with
          | None -> ()
          | Some s ->
            Array.iteri
              (fun b count ->
                if count > 0 && not s.Js_analysis.Dataflow.reach.(b) then
                  add
                    (D.error "P321" ~fid ~pc:b
                       (Printf.sprintf
                          "profiled count %d on block b%d, which dataflow proves unreachable"
                          count b)))
              counts);
      List.iter
        (fun (src, dst, count) ->
          let blocks = Lazy.force blocks in
          let n_blocks = Array.length blocks in
          if src < 0 || src >= n_blocks || dst < 0 || dst >= n_blocks then
            add
              (D.error "P302" ~fid ~pc:src
                 (Printf.sprintf "profiled arc b%d->b%d outside the function's %d blocks" src dst
                    n_blocks))
          else if not (List.mem dst blocks.(src).F.succs) then
            add
              (D.error "P303" ~fid ~pc:src
                 (Printf.sprintf "profiled arc b%d->b%d is not a CFG edge" src dst))
          else if count > 0 then
            match Lazy.force dfa with
            | None -> ()
            | Some s ->
              if not (Js_analysis.Dataflow.feasible_edge s ~src ~dst) then
                add
                  (D.error "P320" ~fid ~pc:src
                     (Printf.sprintf
                        "profiled arc b%d->b%d (count %d) is statically infeasible" src dst
                        count)))
        (C.arc_counts pkg.counters fid)
    done;
    (* P304: call-target profiles must hang off call instructions. *)
    List.iter
      (fun (fid, site) ->
        if not (fid_ok fid) then
          add (D.error "P304" ~fid (Printf.sprintf "call site in invalid function f%d" fid))
        else
          let body = (Hhbc.Repo.func repo fid).F.body in
          if site < 0 || site >= Array.length body then
            add (D.error "P304" ~fid ~pc:site "call site outside the function body")
          else
            match body.(site) with
            | Hhbc.Instr.Call _ | Hhbc.Instr.CallMethod _ | Hhbc.Instr.New _ -> ()
            | _ -> add (D.error "P304" ~fid ~pc:site "call site does not address a call instruction"))
      (C.call_site_list pkg.counters);
    (* P305: property counters. *)
    List.iter
      (fun (cid, nid, _count) ->
        if cid < 0 || cid >= Hhbc.Repo.n_classes repo then
          add (D.error "P305" (Printf.sprintf "property counter for invalid class c%d" cid))
        else if nid < 0 || nid >= Hhbc.Repo.n_names repo then
          add (D.error "P305" (Printf.sprintf "property counter for invalid name n%d" nid)))
      (C.prop_entries pkg.counters);
    (* P308/P309: touched units, entry counters, tier-1 call graph. *)
    List.iter
      (fun uid ->
        if uid < 0 || uid >= n_units then
          add (D.error "P308" (Printf.sprintf "touched unit u%d out of range" uid)))
      (C.touched_units pkg.counters);
    List.iter
      (fun fid ->
        if not (fid_ok fid) then
          add (D.error "P309" (Printf.sprintf "entry counter for invalid function f%d" fid)))
      (C.profiled_funcs pkg.counters);
    List.iter
      (fun (caller, callee, _count) ->
        if not (fid_ok caller && fid_ok callee) then
          add
            (D.error "P309" (Printf.sprintf "call-graph arc f%d->f%d out of range" caller callee)))
      (C.call_graph pkg.counters)
  end;
  (* P306: func_order — the seeder's C3 placement, a permutation fragment. *)
  let seen_order = Hashtbl.create 64 in
  Array.iteri
    (fun i fid ->
      if not (fid_ok fid) then
        add (D.error "P306" ~pc:i (Printf.sprintf "func order entry f%d out of range" fid))
      else if Hashtbl.mem seen_order fid then
        add (D.error "P306" ~fid ~pc:i "duplicate function in placement order")
      else Hashtbl.add seen_order fid ())
    pkg.func_order;
  (* P307: preload list. *)
  let seen_preload = Hashtbl.create 16 in
  Array.iteri
    (fun i uid ->
      if uid < 0 || uid >= n_units then
        add (D.error "P307" ~pc:i (Printf.sprintf "preload unit u%d out of range" uid))
      else if Hashtbl.mem seen_preload uid then
        add (D.error "P307" ~pc:i (Printf.sprintf "duplicate preload unit u%d" uid))
      else Hashtbl.add seen_preload uid ())
    pkg.preload_units;
  (* P310/P311: vasm-level profile, validated against its own shape (block
     indices are only meaningful against re-lowered translations, but an arc
     endpoint past the fid's own weight vector is inconsistent regardless). *)
  let vasm_blocks = Jit.Vasm_profile.profiled_blocks pkg.vasm in
  List.iter
    (fun (fid, _weights) ->
      if not (fid_ok fid) then
        add (D.error "P310" (Printf.sprintf "vasm block weights for invalid function f%d" fid)))
    vasm_blocks;
  List.iter
    (fun (fid, arcs) ->
      if not (fid_ok fid) then
        add (D.error "P310" (Printf.sprintf "vasm arcs for invalid function f%d" fid))
      else
        match List.assoc_opt fid vasm_blocks with
        | None -> ()
        | Some weights ->
          let n = Array.length weights in
          List.iter
            (fun (src, dst, _w) ->
              if src < 0 || src >= n || dst < 0 || dst >= n then
                add
                  (D.error "P311" ~fid ~pc:src
                     (Printf.sprintf "vasm arc b%d->b%d exceeds the %d-block weight vector" src dst
                        n)))
            arcs)
    (Jit.Vasm_profile.profiled_arcs pkg.vasm);
  List.iter
    (fun (fid, _count) ->
      if not (fid_ok fid) then
        add (D.error "P310" (Printf.sprintf "vasm entry counter for invalid function f%d" fid)))
    (Jit.Vasm_profile.entry_counts pkg.vasm);
  (* P313: meta must describe its own counters (warnings: stale meta skews
     the coverage gate but does not make the profile unusable). *)
  if C.n_funcs pkg.counters = n_funcs then begin
    let profiled = List.length (C.profiled_funcs pkg.counters) in
    if pkg.meta.n_profiled_funcs <> profiled then
      add
        (D.warning "P313"
           (Printf.sprintf "meta claims %d profiled functions, counters hold %d"
              pkg.meta.n_profiled_funcs profiled));
    let entries = C.total_entries pkg.counters in
    if pkg.meta.total_entries <> entries then
      add
        (D.warning "P313"
           (Printf.sprintf "meta claims %d total entries, counters hold %d" pkg.meta.total_entries
              entries))
  end;
  D.sort !diags

let result repo pkg =
  match D.errors (check repo pkg) with
  | [] -> Ok ()
  | first :: _ as errs ->
    Error (Printf.sprintf "%s (%d errors total)" (D.to_string first) (List.length errs))
