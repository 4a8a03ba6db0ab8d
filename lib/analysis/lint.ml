(* Dataflow-backed lints (A4xx), surfaced through [Diag] with deterministic
   sorted output.

   A401  dead store: a [StoreLoc] whose local is read on no feasible path
   A402  always-null read: a [LoadLoc] of a must-assigned local that is
         statically null on every feasible path
   A403  constant-foldable expression: a [BinOp]/[UnOp]/[Cast] whose result
         the analysis folded to a constant
   A404  unreachable by dataflow: a block the CFG reaches but feasible-edge
         pruning proves dead (CFG-unreachable blocks are the verifier's
         V109, not repeated here)

   All A4xx are warnings: none describe code the verifier would reject. *)

module I = Hhbc.Instr
module F = Hhbc.Func

let lint_func (f : F.t) (s : Dataflow.summary) =
  let diags = ref [] in
  let warn ?pc code msg = diags := Diag.warning ~fid:f.F.id ?pc code msg :: !diags in
  if s.Dataflow.converged then begin
    let n = Array.length f.F.body in
    (* CFG reachability (ignoring feasibility), to report A404 only where
       the verifier's V109 stays silent *)
    let nb = Array.length s.Dataflow.blocks in
    let cfg_reach = Array.make (max 1 nb) false in
    if nb > 0 then begin
      let rec visit b =
        if b >= 0 && b < nb && not cfg_reach.(b) then begin
          cfg_reach.(b) <- true;
          List.iter visit s.Dataflow.blocks.(b).F.succs
        end
      in
      visit 0
    end;
    for pc = 0 to n - 1 do
      let b = F.block_of_instr s.Dataflow.blocks pc in
      if s.Dataflow.reach.(b) then begin
        (match f.F.body.(pc) with
        | I.StoreLoc l when s.Dataflow.dead_store.(pc) ->
          warn ~pc "A401"
            (Printf.sprintf "function %s: store to local %d is dead (never read)"
               f.F.name l)
        | I.LoadLoc l
          when (not s.Dataflow.undef_read.(pc))
               && Dataflow.Absval.equal s.Dataflow.pushed.(pc)
                    (Dataflow.Absval.Const Hhbc.Value.Null) ->
          warn ~pc "A402"
            (Printf.sprintf "function %s: local %d is always null here" f.F.name l)
        | I.BinOp _ | I.UnOp _ | I.Cast _ -> (
          match s.Dataflow.pushed.(pc) with
          | Dataflow.Absval.Const _ ->
            warn ~pc "A403"
              (Printf.sprintf "function %s: expression folds to a constant (%s)"
                 f.F.name
                 (Dataflow.Absval.to_string s.Dataflow.pushed.(pc)))
          | _ -> ())
        | _ -> ())
      end
    done;
    for b = 0 to nb - 1 do
      if cfg_reach.(b) && not s.Dataflow.reach.(b) then
        warn ~pc:s.Dataflow.blocks.(b).F.start "A404"
          (Printf.sprintf "function %s: block b%d is unreachable by dataflow"
             f.F.name b)
    done
  end;
  List.rev !diags

(* Per-function entry point used by the [analyze] CLIs: the verifier's
   diagnostics plus — when the body has no verifier errors, so the facts
   mean something — the dataflow lints. *)
let check_func repo (f : F.t) =
  let vdiags = Verify.check_func repo f in
  let diags =
    if Diag.errors vdiags = [] then vdiags @ lint_func f (Dataflow.analyze repo f)
    else vdiags
  in
  Diag.sort diags

let check repo =
  Diag.sort
    (List.concat_map
       (fun f -> check_func repo f)
       (Array.to_list repo.Hhbc.Repo.funcs))
