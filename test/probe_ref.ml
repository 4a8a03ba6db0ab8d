(* Reference probe paths: the tier-1 counters, the shadow-stack replay and
   its two handlers as closures over the interpreter's raw events
   ({!Interp.Probes.Events}), kept as a test oracle.  Every event re-keys
   through tuple-keyed Hashtbls, the replay keeps a list of freshly
   allocated frames and looks the callee's translation up on every entry,
   and the handlers look up their translation's tables (or placement) per
   event.  The resolved slots the interpreter's loops bump must serialize
   the same bytes and emit the same machine events. *)

module VF = Vasm.Vfunc
module IT = Vasm.Inline_tree
module W = Js_util.Binio.Writer

(* --- tier-1 counters, recorded through the collector's probes --- *)
module Counters = struct
  type t = {
    repo : Hhbc.Repo.t;
    blocks : int array option array;
    arcs : (int * int, int ref) Hashtbl.t array;
    call_sites : (int * int, (int, int ref) Hashtbl.t) Hashtbl.t;
    entries : int array;
    cg : (int * int, int ref) Hashtbl.t;
    props : (int * int, int ref) Hashtbl.t;
    mutable touched_units_rev : int list;
    touched_unit_set : (int, unit) Hashtbl.t;
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
    }

  let bump table key =
    match Hashtbl.find_opt table key with
    | Some r -> incr r
    | None -> Hashtbl.add table key (ref 1)

  let record_block t fid bb =
    let a =
      match t.blocks.(fid) with
      | Some a -> a
      | None ->
        let a = Array.make (Array.length (Hhbc.Func.basic_blocks (Hhbc.Repo.func t.repo fid))) 0 in
        t.blocks.(fid) <- Some a;
        a
    in
    a.(bb) <- a.(bb) + 1

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

  let record_unit_load t uid =
    if not (Hashtbl.mem t.touched_unit_set uid) then begin
      Hashtbl.add t.touched_unit_set uid ();
      t.touched_units_rev <- uid :: t.touched_units_rev
    end

  let record_func_entry t fid =
    t.entries.(fid) <- t.entries.(fid) + 1;
    record_unit_load t (Hhbc.Repo.func t.repo fid).Hhbc.Func.unit_id

  let probes t =
    Interp.Probes.Events
      {
        on_block = (fun fid bb -> record_block t fid bb);
        on_arc = (fun fid ~src ~dst -> bump t.arcs.(fid) (src, dst));
        on_call = (fun ~caller ~site ~callee -> record_call t ~caller ~site ~callee);
        on_func_entry = (fun fid -> record_func_entry t fid);
        on_func_exit = (fun _ -> ());
        on_prop_access = (fun cid nid ~addr:_ ~write:_ -> bump t.props (cid, nid));
      }

  let triples tbl = Hashtbl.fold (fun (a, b) c acc -> (a, b, !c) :: acc) tbl [] |> List.sort compare

  let varints w xs = List.iter (W.varint w) xs

  (* {!Jit_profile.Counters.serialize}'s wire layout *)
  let serialize t w =
    let profiled = ref [] in
    Array.iteri (fun fid a -> if Option.is_some a then profiled := fid :: !profiled) t.blocks;
    W.list w
      (fun fid ->
        W.varint w fid;
        W.array w (W.varint w) (Option.get t.blocks.(fid)))
      (List.rev !profiled);
    let with_arcs = ref [] in
    Array.iteri (fun fid tbl -> if Hashtbl.length tbl > 0 then with_arcs := fid :: !with_arcs) t.arcs;
    W.list w
      (fun fid ->
        W.varint w fid;
        W.list w (fun (s, d, c) -> varints w [ s; d; c ]) (triples t.arcs.(fid)))
      (List.rev !with_arcs);
    let sites = Hashtbl.fold (fun key tbl acc -> (key, tbl) :: acc) t.call_sites [] in
    W.list w
      (fun ((fid, site), tbl) ->
        varints w [ fid; site ];
        let targets = Hashtbl.fold (fun callee c acc -> (callee, !c) :: acc) tbl [] in
        W.list w (fun (callee, c) -> varints w [ callee; c ]) (List.sort compare targets))
      (List.sort (fun (a, _) (b, _) -> compare a b) sites);
    let entries = ref [] in
    Array.iteri (fun fid e -> if e > 0 then entries := (fid, e) :: !entries) t.entries;
    W.list w (fun (fid, e) -> varints w [ fid; e ]) (List.rev !entries);
    W.list w (fun (a, b, c) -> varints w [ a; b; c ]) (triples t.cg);
    W.list w (fun (a, b, c) -> varints w [ a; b; c ]) (triples t.props);
    W.list w (W.varint w) (List.rev t.touched_units_rev)
end

(* --- shadow-stack replay --- *)
module Context = struct
  type handler = {
    on_vblock : VF.t -> int -> unit;
    on_varc : VF.t -> src:int -> dst:int -> unit;
    on_xcall : caller:Hhbc.Instr.fid option -> callee:Hhbc.Instr.fid -> unit;
    on_prop : addr:int -> write:bool -> unit;
  }

  type frame = {
    f_fid : Hhbc.Instr.fid;
    ctx : (VF.t * int) option;
    inlined : bool;
    mutable last_block : int;
  }

  type state = {
    repo : Hhbc.Repo.t;
    lookup : Hhbc.Instr.fid -> VF.t option;
    h : handler;
    mutable stack : frame list;
    mutable pending : (Hhbc.Instr.fid * int * Hhbc.Instr.fid) option;
    bb_maps : (int, int array) Hashtbl.t;
    pics : (int * int, Hhbc.Instr.fid list ref) Hashtbl.t;
  }

  let pic_entries = 2

  let pic_miss st ~caller ~site ~callee =
    match Hashtbl.find_opt st.pics (caller, site) with
    | None ->
      Hashtbl.add st.pics (caller, site) (ref [ callee ]);
      false
    | Some entries ->
      if List.mem callee !entries then false
      else if List.length !entries < pic_entries then begin
        entries := callee :: !entries;
        false
      end
      else true

  let bb_map st fid =
    match Hashtbl.find_opt st.bb_maps fid with
    | Some m -> m
    | None ->
      let f = Hhbc.Repo.func st.repo fid in
      let m = Array.make (Array.length f.Hhbc.Func.body) 0 in
      Array.iter
        (fun (b : Hhbc.Func.block) ->
          for i = b.start to b.start + b.len - 1 do
            m.(i) <- b.bb_id
          done)
        (Hhbc.Func.basic_blocks f);
      Hashtbl.add st.bb_maps fid m;
      m

  let caller_root st =
    match st.stack with
    | [] -> None
    | top :: _ -> (
      match top.ctx with
      | Some (vf, _) -> Some vf.VF.root_fid
      | None -> Some top.f_fid)

  let own st fid =
    { f_fid = fid; ctx = Option.map (fun v -> (v, 0)) (st.lookup fid); inlined = false; last_block = -1 }

  let enter st fid =
    let frame =
      match st.pending with
      | Some (caller_fid, site, callee) when callee = fid -> (
        st.pending <- None;
        match st.stack with
        | top :: _ when top.f_fid = caller_fid -> (
          match top.ctx with
          | Some (vf, node) -> (
            let take_slow_path () =
              let site_bb = (bb_map st caller_fid).(site) in
              match VF.slow_block vf ~node ~bb:site_bb with
              | Some slow ->
                if top.last_block >= 0 then st.h.on_varc vf ~src:top.last_block ~dst:slow;
                st.h.on_vblock vf slow;
                top.last_block <- slow
              | None -> ()
            in
            let is_method_site =
              match (Hhbc.Repo.func st.repo caller_fid).Hhbc.Func.body.(site) with
              | Hhbc.Instr.CallMethod _ | Hhbc.Instr.New _ -> true
              | _ -> false
            in
            match IT.child_at vf.VF.tree node site with
            | Some child when child.IT.fid = fid ->
              { f_fid = fid; ctx = Some (vf, child.IT.node_id); inlined = true; last_block = top.last_block }
            | Some _ ->
              take_slow_path ();
              st.h.on_xcall ~caller:(Some vf.VF.root_fid) ~callee:fid;
              own st fid
            | None ->
              if is_method_site && pic_miss st ~caller:caller_fid ~site ~callee:fid then
                take_slow_path ();
              st.h.on_xcall ~caller:(Some vf.VF.root_fid) ~callee:fid;
              own st fid)
          | None ->
            st.h.on_xcall ~caller:(caller_root st) ~callee:fid;
            own st fid)
        | _ ->
          st.h.on_xcall ~caller:None ~callee:fid;
          own st fid)
      | Some _ | None ->
        st.pending <- None;
        st.h.on_xcall ~caller:None ~callee:fid;
        own st fid
    in
    st.stack <- frame :: st.stack

  let exit_frame st fid =
    match st.stack with
    | [] -> ()
    | top :: rest ->
      if top.f_fid = fid then begin
        st.stack <- rest;
        match (top.ctx, top.inlined, rest) with
        | Some (vf, _), true, parent :: _ ->
          if top.last_block >= 0 && parent.last_block >= 0 && parent.last_block <> top.last_block
          then st.h.on_varc vf ~src:top.last_block ~dst:parent.last_block
        | _, _, _ -> ()
      end

  let block st fid bb =
    match st.stack with
    | top :: _ when top.f_fid = fid -> (
      match top.ctx with
      | Some (vf, node) -> (
        match VF.main_block vf ~node ~bb with
        | Some blk ->
          if top.last_block >= 0 then st.h.on_varc vf ~src:top.last_block ~dst:blk;
          st.h.on_vblock vf blk;
          top.last_block <- blk
        | None -> ())
      | None -> ())
    | _ -> ()

  let probes repo ~lookup handler =
    let st =
      { repo; lookup; h = handler; stack = []; pending = None; bb_maps = Hashtbl.create 64;
        pics = Hashtbl.create 256 }
    in
    Interp.Probes.Events
      {
        on_block = (fun fid bb -> block st fid bb);
        on_arc = (fun _ ~src:_ ~dst:_ -> ());
        on_call = (fun ~caller ~site ~callee -> st.pending <- Some (caller, site, callee));
        on_func_entry = (fun fid -> enter st fid);
        on_func_exit = (fun fid -> exit_frame st fid);
        on_prop_access = (fun _ _ ~addr ~write -> handler.on_prop ~addr ~write);
      }
end

(* --- measured vasm profile, re-keyed by root fid per event --- *)
module Vasm_profile = struct
  type t = {
    blocks : (int, float array) Hashtbl.t;
    arcs : (int, (int * int, float ref) Hashtbl.t) Hashtbl.t;
    cg : (int * int, int ref) Hashtbl.t;
    entries : (int, int ref) Hashtbl.t;
  }

  let create () =
    { blocks = Hashtbl.create 64; arcs = Hashtbl.create 64; cg = Hashtbl.create 64; entries = Hashtbl.create 64 }

  let bump table key =
    match Hashtbl.find_opt table key with
    | Some r -> incr r
    | None -> Hashtbl.add table key (ref 1)

  let handler t =
    {
      Context.on_vblock =
        (fun vf blk ->
          let a =
            match Hashtbl.find_opt t.blocks vf.VF.root_fid with
            | Some a when Array.length a = VF.n_blocks vf -> a
            | Some _ | None ->
              let a = Array.make (VF.n_blocks vf) 0. in
              Hashtbl.replace t.blocks vf.VF.root_fid a;
              a
          in
          a.(blk) <- a.(blk) +. 1.);
      on_varc =
        (fun vf ~src ~dst ->
          let tbl =
            match Hashtbl.find_opt t.arcs vf.VF.root_fid with
            | Some tbl -> tbl
            | None ->
              let tbl = Hashtbl.create 32 in
              Hashtbl.replace t.arcs vf.VF.root_fid tbl;
              tbl
          in
          match Hashtbl.find_opt tbl (src, dst) with
          | Some r -> r := !r +. 1.
          | None -> Hashtbl.add tbl (src, dst) (ref 1.));
      on_xcall =
        (fun ~caller ~callee ->
          bump t.entries callee;
          Option.iter (fun c -> bump t.cg (c, callee)) caller);
      on_prop = (fun ~addr:_ ~write:_ -> ());
    }

  let sorted tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

  (* {!Jit.Vasm_profile.serialize}'s wire layout *)
  let serialize t w =
    W.list w
      (fun (fid, counts) ->
        W.varint w fid;
        W.array w (W.f64 w) counts)
      (sorted t.blocks);
    W.list w
      (fun (fid, tbl) ->
        W.varint w fid;
        W.list w
          (fun ((s, d), c) ->
            W.varint w s;
            W.varint w d;
            W.f64 w !c)
          (sorted tbl))
      (List.sort (fun (a, _) (b, _) -> compare a b) (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.arcs []));
    W.list w (fun ((a, b), c) -> List.iter (W.varint w) [ a; b; !c ]) (sorted t.cg);
    W.list w (fun (fid, c) -> List.iter (W.varint w) [ fid; !c ]) (sorted t.entries)
end

(* --- machine-trace adapter, looking the placement up per event --- *)
module Trace_adapter = struct
  let handler ~cache (sink : Jit.Trace_adapter.sink) =
    {
      Context.on_vblock =
        (fun vf blk ->
          match Jit.Code_cache.lookup cache vf.VF.root_fid with
          | None -> ()
          | Some placed ->
            sink.fetch ~addr:(Jit.Code_cache.block_addr placed blk) ~size:vf.VF.blocks.(blk).VF.size);
      on_varc =
        (fun vf ~src ~dst ->
          match Jit.Code_cache.lookup cache vf.VF.root_fid with
          | None -> ()
          | Some placed ->
            let src_block = vf.VF.blocks.(src) in
            let src_end = Jit.Code_cache.block_addr placed src + src_block.VF.size in
            let dst_addr = Jit.Code_cache.block_addr placed dst in
            let conditional = List.length src_block.VF.succs > 1 in
            let pc_for target =
              let slot =
                match List.mapi (fun i s -> (s, i)) src_block.VF.succs |> List.assoc_opt target with
                | Some i -> i
                | None -> 0
              in
              src_end - 4 - (4 * slot)
            in
            if dst_addr = src_end then begin
              if conditional then sink.branch ~pc:(pc_for dst) ~target:dst_addr ~taken:false
            end
            else sink.branch ~pc:(pc_for dst) ~target:dst_addr ~taken:true);
      on_xcall = (fun ~caller:_ ~callee:_ -> ());
      on_prop = (fun ~addr ~write -> if write then sink.store ~addr else sink.load ~addr);
    }
end
