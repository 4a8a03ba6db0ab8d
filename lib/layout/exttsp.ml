type params = {
  forward_window : int;
  backward_window : int;
  forward_scale : float;
  backward_scale : float;
  max_chain_split : int;
}

let default_params =
  {
    forward_window = 1024;
    backward_window = 640;
    forward_scale = 0.1;
    backward_scale = 0.1;
    max_chain_split = 128;
  }

(* Score contribution of one arc given the layout byte offsets of its
   endpoints.  [src_end] is the address just past the source block; [dst]
   the address of the target block. *)
let[@inline] arc_score params ~weight ~src_end ~dst =
  if dst = src_end then weight
  else if dst > src_end then begin
    let gap = dst - src_end in
    if gap <= params.forward_window then
      params.forward_scale *. weight *. (1. -. (float_of_int gap /. float_of_int params.forward_window))
    else 0.
  end
  else begin
    let gap = src_end - dst in
    if gap <= params.backward_window then
      params.backward_scale *. weight *. (1. -. (float_of_int gap /. float_of_int params.backward_window))
    else 0.
  end

let score ?(params = default_params) cfg order =
  let blocks = Cfg.blocks cfg in
  let n = Array.length blocks in
  if Array.length order <> n then invalid_arg "Exttsp.score: order length mismatch";
  let seen = Array.make n false in
  Array.iter
    (fun id ->
      if id < 0 || id >= n || seen.(id) then invalid_arg "Exttsp.score: not a permutation";
      seen.(id) <- true)
    order;
  (* byte offset of each block start and end under [order] *)
  let start = Array.make n 0 in
  let stop = Array.make n 0 in
  let off = ref 0 in
  Array.iter
    (fun id ->
      start.(id) <- !off;
      off := !off + blocks.(id).Cfg.size;
      stop.(id) <- !off)
    order;
  Array.fold_left
    (fun acc (a : Cfg.arc) ->
      if a.src = a.dst then acc (* self-loops score 0 under any order *)
      else acc +. arc_score params ~weight:a.weight ~src_end:stop.(a.src) ~dst:start.(a.dst))
    0. (Cfg.arcs cfg)

(* --- greedy chain merging --- *)

type chain = {
  cid : int;
  mutable blocks_seq : int array;  (** layout order within the chain *)
  mutable size : int;
  mutable weight : float;
  mutable alive : bool;
}

(* Every merge candidate of chains x (receiver) and y is
   [x[0,cut) · y · x[cut,len x)]: [cut = len x] is x·y, [cut = 0] is y·x and
   the cuts in between split x.  [block_at xs ys cut k] is the block at
   position [k] of that sequence, so candidates are scored without being
   built. *)
let block_at xs ys cut k =
  if k < cut then xs.(k)
  else
    let ly = Array.length ys in
    if k < cut + ly then ys.(k - cut) else xs.(k - ly)

(* The cached [best_merge] of one connected chain pair; [cut < 0] when no
   candidate gains. *)
type pair = {
  mutable fresh : bool;
  mutable cut : int;
  mutable gain : float;
  mutable merged_score : float;  (** internal score of the winning sequence *)
}

let layout ?(params = default_params) cfg =
  let blocks = Cfg.blocks cfg in
  let n = Array.length blocks in
  if n = 0 then [||]
  else if n = 1 then [| 0 |]
  else begin
    let entry = Cfg.entry cfg in
    let block_sizes = Array.map (fun b -> b.Cfg.size) blocks in
    (* non-self-loop successor arcs of each block, in [Cfg.succs] order *)
    let succ_arcs =
      Array.init n (fun id ->
          Array.of_list (List.filter (fun (a : Cfg.arc) -> a.src <> a.dst) (Cfg.succs cfg id)))
    in
    let chains = Array.init n (fun i ->
        { cid = i; blocks_seq = [| i |]; size = blocks.(i).Cfg.size; weight = blocks.(i).Cfg.weight; alive = true })
    in
    let chain_of = Array.init n (fun i -> i) in
    let member = Array.make n false in
    let start = Array.make n 0 in
    (* score of a chain's internal arcs, cached; a singleton has none *)
    let chain_score = Array.make n 0. in
    (* Ext-TSP score of the arcs internal to candidate [cut] of x and y, whose
       blocks are marked in [member]: blocks in sequence order, arcs in
       [Cfg.succs] order. *)
    let candidate_score xs ys cut =
      let len = Array.length xs + Array.length ys in
      let off = ref 0 in
      for k = 0 to len - 1 do
        let id = block_at xs ys cut k in
        start.(id) <- !off;
        off := !off + block_sizes.(id)
      done;
      let acc = ref 0. in
      for k = 0 to len - 1 do
        let id = block_at xs ys cut k in
        let src_end = start.(id) + block_sizes.(id) in
        let arcs = succ_arcs.(id) in
        for j = 0 to Array.length arcs - 1 do
          let a = arcs.(j) in
          if member.(a.dst) then
            acc := !acc +. arc_score params ~weight:a.weight ~src_end ~dst:start.(a.dst)
        done
      done;
      !acc
    in
    (* Best candidate for the pair, in the order x·y, y·x, then cuts from
       [len x - 1] down to 1; a later candidate wins only with a strictly
       higher score.  The entry block must stay first: candidates placing
       anything before it are skipped. *)
    let best_merge x y p =
      let xs = x.blocks_seq and ys = y.blocks_seq in
      let lx = Array.length xs in
      Array.iter (fun id -> member.(id) <- true) xs;
      Array.iter (fun id -> member.(id) <- true) ys;
      let has_entry = member.(entry) in
      let best_cut = ref (-1) and best_score = ref 0. in
      let consider cut =
        if (not has_entry) || block_at xs ys cut 0 = entry then begin
          let s = candidate_score xs ys cut in
          if !best_cut < 0 || not (!best_score >= s) then begin
            best_cut := cut;
            best_score := s
          end
        end
      in
      consider lx;
      consider 0;
      if lx <= params.max_chain_split && lx > 1 then
        for cut = lx - 1 downto 1 do
          consider cut
        done;
      Array.iter (fun id -> member.(id) <- false) xs;
      Array.iter (fun id -> member.(id) <- false) ys;
      p.fresh <- true;
      p.cut <- -1;
      if !best_cut >= 0 then begin
        let gain = !best_score -. chain_score.(x.cid) -. chain_score.(y.cid) in
        if gain > 1e-9 then begin
          p.cut <- !best_cut;
          p.gain <- gain;
          p.merged_score <- !best_score
        end
      end
    in
    (* Only chain pairs connected by at least one arc are merge candidates.
       Pairs are never removed: the scan order of this table decides ties. *)
    let connected = Hashtbl.create 64 in
    let note_pair a b =
      if a <> b then
        Hashtbl.replace connected (min a b, max a b) { fresh = false; cut = -1; gain = 0.; merged_score = 0. }
    in
    Array.iter (fun (a : Cfg.arc) -> note_pair chain_of.(a.src) chain_of.(a.dst)) (Cfg.arcs cfg);
    let rec iterate () =
      (* find the best gain over all connected alive chain pairs; only pairs
         whose chains changed since their last evaluation are re-evaluated *)
      let best = ref None in
      Hashtbl.iter
        (fun (ca, cb) p ->
          let x = chains.(ca) and y = chains.(cb) in
          if x.alive && y.alive then begin
            if not p.fresh then best_merge x y p;
            if p.cut >= 0 then
              match !best with
              | Some (bg, _, _, _) when bg >= p.gain -> ()
              | _ -> best := Some (p.gain, x, y, p)
          end)
        connected;
      match !best with
      | None -> ()
      | Some (_, x, y, p) ->
        (* merge y into x with the winning sequence *)
        let xs = x.blocks_seq and ys = y.blocks_seq in
        let seq = Array.init (Array.length xs + Array.length ys) (block_at xs ys p.cut) in
        x.blocks_seq <- seq;
        x.size <- x.size + y.size;
        x.weight <- x.weight +. y.weight;
        y.alive <- false;
        Array.iter (fun id -> chain_of.(id) <- x.cid) seq;
        chain_score.(x.cid) <- p.merged_score;
        (* x changed, so its pairs are stale; re-point connectivity of y to x *)
        let to_add = ref [] in
        Hashtbl.iter
          (fun (ca, cb) q ->
            if ca = x.cid || cb = x.cid then q.fresh <- false
            else if ca = y.cid || cb = y.cid then to_add := (if ca = y.cid then cb else ca) :: !to_add)
          connected;
        List.iter (fun other -> note_pair x.cid other) !to_add;
        iterate ()
    in
    iterate ();
    (* Emit: entry chain first, then remaining chains by decreasing density. *)
    let alive = Array.to_list chains |> List.filter (fun c -> c.alive) in
    let entry_chain = List.find (fun c -> chain_of.(entry) = c.cid) alive in
    let rest = List.filter (fun c -> c.cid <> entry_chain.cid) alive in
    let density c = if c.size = 0 then 0. else c.weight /. float_of_int c.size in
    let rest =
      List.sort
        (fun a b ->
          let c = compare (density b) (density a) in
          if c <> 0 then c else compare a.cid b.cid)
        rest
    in
    Array.concat (List.map (fun c -> c.blocks_seq) (entry_chain :: rest))
  end
