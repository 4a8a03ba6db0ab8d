module C = Jit_profile.Counters
module VF = Vasm.Vfunc

type bb_layout = Exttsp | Source_order | Pettis_hansen
type func_order = C3_tier2 | C3_tier1

type config = {
  inline_params : Inliner.params;
  hot_threshold : float;
  bb_layout : bb_layout;
  use_measured_bb_weights : bool;
  func_order : func_order;
  min_entries : int;
  mode : Vasm.Lower.mode;
}

let default_config =
  {
    inline_params = Inliner.default_params;
    hot_threshold = 0.002;
    bb_layout = Exttsp;
    use_measured_bb_weights = true;
    func_order = C3_tier2;
    min_entries = 5;
    mode = Vasm.Lower.Optimized;
  }

let no_jumpstart_config =
  { default_config with use_measured_bb_weights = false; func_order = C3_tier1 }

type compiled = {
  cache : Code_cache.t;
  vfuncs : (Hhbc.Instr.fid, VF.t) Hashtbl.t;
  order : Hhbc.Instr.fid array;
  n_translations : int;
  n_skipped : int;
}

let select repo counters ~min_entries =
  List.filter
    (fun fid ->
      C.func_entries counters fid >= min_entries
      && Array.length (Hhbc.Repo.func repo fid).Hhbc.Func.body > 0)
    (C.profiled_funcs counters)

let plan_and_lower repo counters config fid =
  let tree = Inliner.plan repo counters fid config.inline_params in
  Vasm.Lower.lower repo tree ~mode:config.mode

let lower_all repo counters config =
  List.map
    (fun fid -> (fid, plan_and_lower repo counters config fid))
    (select repo counters ~min_entries:config.min_entries)

(* Block layout for one translation. *)
let layout_one repo counters config ~measured vf =
  let cfg =
    match (config.use_measured_bb_weights, measured) with
    | true, Some m -> Vasm_profile.to_cfg m vf
    | true, None | false, _ -> Weights.to_cfg vf (Weights.estimate repo counters vf)
  in
  let order_hot =
    match config.bb_layout with
    | Exttsp -> fun sub -> Layout.Exttsp.layout sub
    | Source_order -> Layout.Baselines.source_order
    | Pettis_hansen -> Layout.Baselines.pettis_hansen
  in
  Layout.Hotcold.arrange cfg ~threshold:config.hot_threshold ~order_hot

(* Function placement order. *)
let function_order counters config ~measured vfuncs =
  let fids = Array.of_list (List.map fst vfuncs) in
  let n = Array.length fids in
  let index_of = Hashtbl.create n in
  Array.iteri (fun i fid -> Hashtbl.replace index_of fid i) fids;
  let size_of = Hashtbl.create n in
  List.iter (fun (fid, vf) -> Hashtbl.replace size_of fid (VF.code_size vf)) vfuncs;
  let samples fid =
    match (config.func_order, measured) with
    | C3_tier2, Some m -> float_of_int (Vasm_profile.entry_count m fid)
    | _ -> float_of_int (C.func_entries counters fid)
  in
  let nodes =
    Array.mapi
      (fun i fid -> { Layout.C3.id = i; size = Hashtbl.find size_of fid; samples = samples fid })
      fids
  in
  let graph =
    match (config.func_order, measured) with
    | C3_tier2, Some m -> Vasm_profile.call_graph m
    | C3_tier2, None | C3_tier1, _ -> C.call_graph counters
  in
  let arcs =
    Array.of_list
      (List.filter_map
         (fun (caller, callee, count) ->
           match (Hashtbl.find_opt index_of caller, Hashtbl.find_opt index_of callee) with
           | Some c1, Some c2 -> Some { Layout.C3.caller = c1; callee = c2; weight = float_of_int count }
           | _, _ -> None)
         graph)
  in
  Array.map (fun i -> fids.(i)) (Layout.C3.order ~nodes ~arcs ())

let finish repo counters config ~measured ?order vfuncs =
  let order =
    match order with
    | None -> function_order counters config ~measured vfuncs
    | Some shipped ->
      (* keep only fids we actually lowered, then append any missing ones in
         local hotness order *)
      let have = Hashtbl.create (List.length vfuncs) in
      List.iter (fun (fid, _) -> Hashtbl.replace have fid ()) vfuncs;
      let shipped_set = Hashtbl.create (Array.length shipped) in
      let kept =
        Array.to_list shipped
        |> List.filter (fun fid ->
               if Hashtbl.mem have fid then begin
                 Hashtbl.replace shipped_set fid ();
                 true
               end
               else false)
      in
      let missing = List.filter (fun (fid, _) -> not (Hashtbl.mem shipped_set fid)) vfuncs in
      let missing =
        List.sort (fun (a, _) (b, _) -> compare (C.func_entries counters b) (C.func_entries counters a)) missing
      in
      Array.of_list (kept @ List.map fst missing)
  in
  let by_fid = Hashtbl.create (List.length vfuncs) in
  List.iter (fun (fid, vf) -> Hashtbl.replace by_fid fid vf) vfuncs;
  let cache = Code_cache.create () in
  let skipped = ref 0 in
  Array.iter
    (fun fid ->
      let vf = Hashtbl.find by_fid fid in
      let block_order, n_hot = layout_one repo counters config ~measured vf in
      match Code_cache.place cache vf ~order:block_order ~n_hot with
      | Some _ -> ()
      | None -> incr skipped)
    order;
  {
    cache;
    vfuncs = by_fid;
    order;
    n_translations = List.length vfuncs - !skipped;
    n_skipped = !skipped;
  }

let compile repo counters config ~measured =
  finish repo counters config ~measured (lower_all repo counters config)

let lookup compiled fid = Hashtbl.find_opt compiled.vfuncs fid
