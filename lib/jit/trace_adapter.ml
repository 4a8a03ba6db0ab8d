module VF = Vasm.Vfunc

type sink = {
  fetch : addr:int -> size:int -> unit;
  branch : pc:int -> target:int -> taken:bool -> unit;
  load : addr:int -> unit;
  store : addr:int -> unit;
}

let ignored = Interp.Probes.Emit { on_vblock = (fun ~src:_ _ -> ()); on_varc = (fun ~src:_ ~dst:_ -> ()) }

(* Each block's placement, packed for the event path: at [stride * b],
   block [b]'s address, size, end, successor count and first two
   successors (-1: none), so an event reads one or two cache lines. *)
let stride = 6

(* A placed translation's events, with every block's address, size and
   successor list resolved up front; a block with more than one successor
   ends in a conditional branch. *)
let translation ~cache sink (vf : VF.t) =
  match Code_cache.lookup cache vf.VF.root_fid with
  | None -> ignored
  | Some placed ->
    let succs = Array.map (fun (b : VF.block) -> Array.of_list b.VF.succs) vf.VF.blocks in
    let info = Array.make (stride * Array.length succs) (-1) in
    Array.iteri
      (fun b (blk : VF.block) ->
        let addr = placed.Code_cache.offsets.(b) and succ = succs.(b) in
        Array.blit
          [| addr; blk.VF.size; addr + blk.VF.size; Array.length succ |]
          0 info (stride * b) 4;
        Array.iteri (fun i s -> if i < 2 then info.((stride * b) + 4 + i) <- s) succ)
      vf.VF.blocks;
    (* Each distinct successor corresponds to a distinct branch instruction
       within the block (calls, jumps, guards), so derive a per-target pc
       from the target's successor slot; otherwise one pc would alternate
       targets and the BTB would thrash artificially.  A destination
       outside the successor list takes slot 0.  The first two slots are
       told apart without a branch. *)
    let[@inline] slot ~src ~dst =
      let i = stride * src in
      if info.(i + 3) <= 2 then Bool.to_int (info.(i + 4) <> dst) land Bool.to_int (info.(i + 5) = dst)
      else begin
        let succ = succs.(src) in
        let k = ref 0 in
        while !k < Array.length succ && succ.(!k) <> dst do
          incr k
        done;
        if !k < Array.length succ then !k else 0
      end
    in
    let[@inline] arc ~src ~dst =
      let src_end = info.((stride * src) + 2) and dst_addr = info.(stride * dst) in
      (* a fall-through consults the predictor only after a conditional
         not-taken *)
      if dst_addr <> src_end || info.((stride * src) + 3) > 1 then
        sink.branch ~pc:(src_end - 4 - (4 * slot ~src ~dst)) ~target:dst_addr ~taken:(dst_addr <> src_end)
    in
    Interp.Probes.Emit
      {
        on_vblock =
          (fun ~src blk ->
            if src >= 0 then arc ~src ~dst:blk;
            sink.fetch ~addr:info.(stride * blk) ~size:info.((stride * blk) + 1));
        on_varc = arc;
      }

let handler ~cache sink =
  {
    Context.translation = translation ~cache sink;
    xcalls = None;
    data = Some { Interp.Probes.load = sink.load; store = sink.store };
  }
