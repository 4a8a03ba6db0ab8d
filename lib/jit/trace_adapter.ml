module VF = Vasm.Vfunc

type sink = {
  fetch : addr:int -> size:int -> unit;
  branch : pc:int -> target:int -> taken:bool -> unit;
  load : addr:int -> unit;
  store : addr:int -> unit;
}

let ignored = Interp.Probes.Emit { on_vblock = (fun _ -> ()); on_varc = (fun ~src:_ ~dst:_ -> ()) }

(* A placed translation's events, with every block's address, size and
   successor list resolved up front; a block with more than one successor
   ends in a conditional branch. *)
let translation ~cache sink (vf : VF.t) =
  match Code_cache.lookup cache vf.VF.root_fid with
  | None -> ignored
  | Some placed ->
    let addr = placed.Code_cache.offsets in
    let size = Array.map (fun (b : VF.block) -> b.VF.size) vf.VF.blocks in
    let succs = Array.map (fun (b : VF.block) -> Array.of_list b.VF.succs) vf.VF.blocks in
    Interp.Probes.Emit
      {
        on_vblock = (fun blk -> sink.fetch ~addr:addr.(blk) ~size:size.(blk));
        on_varc =
          (fun ~src ~dst ->
            let src_end = addr.(src) + size.(src) in
            let dst_addr = addr.(dst) in
            let succ = succs.(src) in
            (* Each distinct successor corresponds to a distinct branch
               instruction within the block (calls, jumps, guards), so derive
               a per-target pc from the target's successor slot; otherwise one
               pc would alternate targets and the BTB would thrash
               artificially. *)
            let i = ref 0 in
            while !i < Array.length succ && succ.(!i) <> dst do
              incr i
            done;
            (* a destination outside the successor list takes slot 0 *)
            let slot = if !i < Array.length succ then !i else 0 in
            let pc = src_end - 4 - (4 * slot) in
            if dst_addr = src_end then begin
              (* fall-through; only a conditional not-taken consults the
                 predictor *)
              if Array.length succ > 1 then sink.branch ~pc ~target:dst_addr ~taken:false
            end
            else sink.branch ~pc ~target:dst_addr ~taken:true);
      }

let handler ~cache sink =
  {
    Context.translation = translation ~cache sink;
    xcalls = None;
    on_prop = Some (fun ~addr ~write -> if write then sink.store ~addr else sink.load ~addr);
  }
