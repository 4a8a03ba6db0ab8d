(* The published constants: jump windows in bytes, and the partial credit of
   a jump, both scales in [0, 1]. *)
let forward_window = 1024
let backward_window = 640
let forward_scale = 0.1
let backward_scale = 0.1

(* Score contribution of one arc given the layout byte offsets of its
   endpoints.  [src_end] is the address just past the source block; [dst]
   the address of the target block. *)
let[@inline] arc_score ~weight ~src_end ~dst =
  if dst = src_end then weight
  else if dst > src_end then begin
    let gap = dst - src_end in
    if gap <= forward_window then
      forward_scale *. weight *. (1. -. (float_of_int gap /. float_of_int forward_window))
    else 0.
  end
  else begin
    let gap = src_end - dst in
    if gap <= backward_window then
      backward_scale *. weight *. (1. -. (float_of_int gap /. float_of_int backward_window))
    else 0.
  end

let score cfg order =
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
      else acc +. arc_score ~weight:a.weight ~src_end:stop.(a.src) ~dst:start.(a.dst))
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
let[@inline] block_at (xs : int array) (ys : int array) cut k =
  if k < cut then xs.(k)
  else
    let ly = Array.length ys in
    if k < cut + ly then ys.(k - cut) else xs.(k - ly)

(* Address of block [id] in a candidate of x and y, from its chain offset
   [off.(id)]: x's prefix keeps its offsets, y starts at [y_at], and x's
   suffix moves up by [y_size]. *)
let[@inline] addr ~(chain_of : int array) ~(pos : int array) ~(off : int array) ~xc ~cut ~y_at
    ~y_size id =
  let o = off.(id) in
  if chain_of.(id) <> xc then y_at + o else if pos.(id) < cut then o else o + y_size

(* Arcs grouped by [key] (source or target block), each group in array
   order; returns the group offsets, the other endpoints and the weights. *)
let group n (arcs : Cfg.arc array) key other =
  let first = Array.make (n + 1) 0 in
  Array.iter (fun a -> first.(key a + 1) <- first.(key a + 1) + 1) arcs;
  for i = 1 to n do
    first.(i) <- first.(i) + first.(i - 1)
  done;
  let fill = Array.sub first 0 n in
  let ends = Array.make (Array.length arcs) 0 and weights = Array.create_float (Array.length arcs) in
  Array.iter
    (fun (a : Cfg.arc) ->
      let i = fill.(key a) in
      ends.(i) <- other a;
      weights.(i) <- a.weight;
      fill.(key a) <- i + 1)
    arcs;
  (first, ends, weights)

(* A connected chain pair, numbered [id] in the order its key (x, y), x < y,
   first entered the pair table; x receives y on a merge.  Only a heap entry
   stamped with the pair's current [version] is live.  [cut] is [pending]
   while the live entry holds a bound, the winning cut once the pair is
   evaluated, or -1 when the pair cannot gain. *)
type pair = {
  id : int;
  x : int;
  y : int;
  hash : int;  (** [Hashtbl.hash (x, y)] *)
  mutable version : int;
  mutable cut : int;
  mutable bounds : float array;  (** while pending: each valid candidate's bound *)
  mutable top : int;  (** while pending: the candidate with the highest bound *)
  mutable margin : float;  (** while pending: the bounds' rounding margin *)
  mutable gain : float;
  mutable merged_score : float;  (** internal score of the winning sequence *)
}

let pending = -2

(* Pruning.  Y stays contiguous in every candidate, so its internal arcs
   score as in y alone.  Inserting y between x[cut-1] and x[cut] lengthens
   some distances inside x by y's size, in the same direction, and keeps the
   rest; with non-negative sizes and weights and scales in [0, 1], an arc's
   score never rises with its distance, term by term in floats too, since
   rounding is monotone.  So, summing the float terms exactly,

     S(cut) <= S(x) + S(y) + cross(cut) - loss(cut)

   where [cross] scores the arcs between x and y at their offsets in the
   candidate and [loss] is what the fall-through arcs x[cut-1] -> x[cut]
   lose at distance [size y].  Let u = 2^-53, m the CFG's non-self-loop
   arcs and M = score x + score y + weight(x, y).  Every score, cached or
   candidate, is a float sum of at most m non-negative terms, within
   gamma_m = mu / (1 - mu) of its exact sum (Higham, Accuracy and Stability
   of Numerical Algorithms, §4.2), and the bound takes at most 2m + 1
   roundings of values at most M.  So a computed score exceeds its computed
   bound by less than (4m + 1) u M (1 + 2mu), and with the comparison's own
   rounding, (4m + 16) epsilon_float (1 + M) covers it (epsilon_float = 2u,
   the 1 covers underflow, and a sum that overflows overflows the bound
   too).  A candidate whose bound plus margin lies below a computed score
   scores strictly less, so it is not the first maximum in scan order:
   pruning it changes neither the winner nor its score.

   Merge selection (the contract is in the .mli).  The tie order replays
   the stdlib's [Hashtbl] under a zero seed: [replace] puts a new key at
   the head of its bucket and leaves an existing key in place, and once the
   keys exceed twice the buckets a resize doubles them, splitting each
   bucket in order.  Every pair that may gain holds one live heap entry,
   keyed by its exact gain or by a bound at least as high, so when an exact
   entry tops the heap, the pairs that could tie with it are the ones whose
   entries sit at its key. *)
let layout ?(max_chain_split = 128) cfg =
  let blocks = Cfg.blocks cfg in
  let n = Array.length blocks in
  if n = 0 then [||]
  else if n = 1 then [| 0 |]
  else begin
    let entry = Cfg.entry cfg in
    let size = Array.map (fun b -> b.Cfg.size) blocks in
    (* non-self-loop arcs, flat: a block's successors in [Cfg.succs] order,
       and its predecessors *)
    let arcs = Cfg.arcs cfg |> Array.to_list |> List.filter (fun (a : Cfg.arc) -> a.src <> a.dst) in
    let arcs = Array.of_list arcs in
    let m = Array.length arcs in
    let succ_first, succ_dst, succ_w = group n arcs (fun a -> a.src) (fun a -> a.dst) in
    let pred_first, pred_src, pred_w = group n arcs (fun a -> a.dst) (fun a -> a.src) in
    let chains = Array.init n (fun i ->
        { cid = i; blocks_seq = [| i |]; size = size.(i); weight = blocks.(i).Cfg.weight; alive = true })
    in
    (* each block's chain, position in it and byte offset from its start *)
    let chain_of = Array.init n (fun i -> i) in
    let pos = Array.make n 0 and off = Array.make n 0 in
    (* score of a chain's internal arcs, cached; a singleton has none *)
    let chain_score = Array.make n 0. in
    (* Ext-TSP score of the arcs internal to candidate [cut] of x and y:
       sources in sequence order, each one's arcs in [Cfg.succs] order. *)
    let candidate_score x y cut =
      let xs = x.blocks_seq and ys = y.blocks_seq in
      let xc = x.cid and yc = y.cid and y_size = y.size in
      let y_at = if cut = Array.length xs then x.size else off.(xs.(cut)) in
      let acc = ref 0. in
      for k = 0 to Array.length xs + Array.length ys - 1 do
        let id = block_at xs ys cut k in
        let src_end = addr ~chain_of ~pos ~off ~xc ~cut ~y_at ~y_size id + size.(id) in
        for j = succ_first.(id) to succ_first.(id + 1) - 1 do
          let d = succ_dst.(j) in
          let c = chain_of.(d) in
          if c = xc || c = yc then begin
            let dst = addr ~chain_of ~pos ~off ~xc ~cut ~y_at ~y_size d in
            acc := !acc +. arc_score ~weight:succ_w.(j) ~src_end ~dst
          end
        done
      done;
      !acc
    in
    (* reused per pair evaluation: its cross arcs, and its candidates' bounds *)
    let cross_src = Array.make m 0 and cross_dst = Array.make m 0 and cross_w = Array.create_float m in
    let bound = Array.create_float (n + 1) in
    (* Collects the arcs between x and y from the shorter chain's blocks:
       returns their number and total weight. *)
    let gather x y =
      let short, other = if Array.length x.blocks_seq <= Array.length y.blocks_seq then (x, y) else (y, x) in
      let oc = other.cid in
      let k = ref 0 and w = ref 0. in
      let note s d wt =
        cross_src.(!k) <- s;
        cross_dst.(!k) <- d;
        cross_w.(!k) <- wt;
        w := !w +. wt;
        incr k
      in
      Array.iter
        (fun b ->
          for j = succ_first.(b) to succ_first.(b + 1) - 1 do
            if chain_of.(succ_dst.(j)) = oc then note b succ_dst.(j) succ_w.(j)
          done;
          for j = pred_first.(b) to pred_first.(b + 1) - 1 do
            if chain_of.(pred_src.(j)) = oc then note pred_src.(j) b pred_w.(j)
          done)
        short.blocks_seq;
      (!k, !w)
    in
    (* The bound of candidate [cut] (see "Pruning" above). *)
    let bound_of x y ~n_cross cut =
      let xs = x.blocks_seq in
      let lx = Array.length xs and xc = x.cid and y_size = y.size in
      let y_at = if cut = lx then x.size else off.(xs.(cut)) in
      let b = ref (chain_score.(x.cid) +. chain_score.(y.cid)) in
      for i = 0 to n_cross - 1 do
        let s = cross_src.(i) in
        let src_end = addr ~chain_of ~pos ~off ~xc ~cut ~y_at ~y_size s + size.(s) in
        let dst = addr ~chain_of ~pos ~off ~xc ~cut ~y_at ~y_size cross_dst.(i) in
        b := !b +. arc_score ~weight:cross_w.(i) ~src_end ~dst
      done;
      if cut > 0 && cut < lx then begin
        let u = xs.(cut - 1) and v = xs.(cut) in
        for j = succ_first.(u) to succ_first.(u + 1) - 1 do
          if succ_dst.(j) = v then
            b := !b -. (succ_w.(j) -. arc_score ~weight:succ_w.(j) ~src_end:0 ~dst:y_size)
        done
      end;
      !b
    in
    let n_cand lx = if lx <= max_chain_split && lx > 1 then lx + 1 else 2 in
    let cut_at lx i = if i = 0 then lx else if i = 1 then 0 else lx + 1 - i in
    (* The entry block must stay first: candidates placing anything before
       it are skipped. *)
    let valid x y cut =
      let c = chain_of.(entry) in
      (c <> x.cid && c <> y.cid) || (if cut = 0 then y.blocks_seq.(0) else x.blocks_seq.(0)) = entry
    in
    (* Best candidate for a pair that [restale] bounded, in the scan order
       x·y, y·x, then cuts from [len x - 1] down to 1; a later candidate wins
       only with a strictly higher score.  The candidate with the highest
       bound is scored first; every other one is scored only if its bound
       can still reach the best score computed so far. *)
    let best_merge p =
      let x = chains.(p.x) and y = chains.(p.y) in
      let lx = Array.length x.blocks_seq in
      let bounds = p.bounds and top = p.top and margin = p.margin in
      p.bounds <- [||];
      p.cut <- -1;
      let top_score = candidate_score x y (cut_at lx top) in
      let seen = ref top_score in
      let best_cut = ref (-1) and best_score = ref 0. in
      for i = 0 to n_cand lx - 1 do
        let cut = cut_at lx i in
        if valid x y cut && (i = top || not (bounds.(i) +. margin < !seen)) then begin
          let s = if i = top then top_score else candidate_score x y cut in
          if s > !seen then seen := s;
          if !best_cut < 0 || not (!best_score >= s) then begin
            best_cut := cut;
            best_score := s
          end
        end
      done;
      let gain = !best_score -. chain_score.(x.cid) -. chain_score.(y.cid) in
      if gain > 1e-9 then begin
        p.cut <- !best_cut;
        p.gain <- gain;
        p.merged_score <- !best_score
      end
    in
    (* The pair table: pairs by id, each chain's pairs, and the bucket count
       [buckets] of the hash table whose scan order breaks ties. *)
    let pairs = ref [||] and n_pairs = ref 0 and buckets = ref 64 in
    let links = Array.make n [] in
    let add_pair a b =
      let x = min a b and y = max a b in
      let p =
        { id = !n_pairs; x; y; hash = Hashtbl.hash (x, y); version = 0; cut = -1; bounds = [||];
          top = -1; margin = 0.; gain = 0.; merged_score = 0. }
      in
      if !n_pairs = Array.length !pairs then begin
        let grown = Array.make (max 64 (2 * !n_pairs)) p in
        Array.blit !pairs 0 grown 0 !n_pairs;
        pairs := grown
      end;
      !pairs.(!n_pairs) <- p;
      incr n_pairs;
      if !n_pairs > 2 * !buckets then buckets := 2 * !buckets;
      if chains.(x).alive then links.(x) <- p :: links.(x);
      if chains.(y).alive then links.(y) <- p :: links.(y)
    in
    (* The table's scan order: buckets ascending, the newest key first
       within a bucket. *)
    let scan_compare p q =
      let c = compare (p.hash land (!buckets - 1)) (q.hash land (!buckets - 1)) in
      if c <> 0 then c else compare q.id p.id
    in
    let other p c = if p.x = c then p.y else p.x in
    let live p = chains.(p.x).alive && chains.(p.y).alive in
    (* Heap entries are [version lsl id_bits lor id], keyed by the negated
       gain or gain bound; an entry is live while its version is the
       pair's. *)
    let id_bits = 31 in
    let heap = Js_util.Pqueue.create ~dummy:(-1) () in
    let push p key =
      p.version <- p.version + 1;
      Js_util.Pqueue.push heap ~priority:(-.key) ((p.version lsl id_bits) lor p.id)
    in
    (* The chains of [p] changed: its older entries die.  Bounds every valid
       candidate and, when the pair's gain bound (see "Merge selection"
       above) clears the gain floor, keeps the bounds for [best_merge] and
       enters the heap at that bound. *)
    let restale p =
      let x = chains.(p.x) and y = chains.(p.y) in
      let lx = Array.length x.blocks_seq in
      let n_cross, w_cross = gather x y in
      let margin =
        float_of_int ((4 * m) + 16) *. epsilon_float
        *. (1. +. chain_score.(x.cid) +. chain_score.(y.cid) +. w_cross)
      in
      let top = ref (-1) in
      for i = 0 to n_cand lx - 1 do
        let cut = cut_at lx i in
        if valid x y cut then begin
          bound.(i) <- bound_of x y ~n_cross cut;
          if !top < 0 || bound.(i) > bound.(!top) then top := i
        end
      done;
      let key =
        if !top < 0 then neg_infinity
        else bound.(!top) +. margin -. chain_score.(x.cid) -. chain_score.(y.cid)
      in
      if key > 1e-9 then begin
        p.cut <- pending;
        p.bounds <- Array.sub bound 0 (n_cand lx);
        p.top <- !top;
        p.margin <- margin;
        push p key
      end
      else begin
        p.version <- p.version + 1;
        p.cut <- -1
      end
    in
    (* Pops the top entry: its pair when the entry is live, else [None].  A
       live bound entry is evaluated exactly and re-enters at its gain. *)
    let pop () =
      let e = Js_util.Pqueue.pop_exn heap in
      let p = !pairs.(e land ((1 lsl id_bits) - 1)) in
      if e lsr id_bits <> p.version || not (live p) then None
      else if p.cut = pending then begin
        best_merge p;
        if p.cut >= 0 then push p p.gain;
        None
      end
      else Some p
    in
    (* The winning pair: the highest gain, ties to the pair scanned first.
       Every entry at the winning key is resolved before the choice. *)
    let rec pick () =
      if Js_util.Pqueue.is_empty heap then None
      else
        match pop () with
        | None -> pick ()
        | Some p ->
          let best = ref p and ties = ref [] in
          while Js_util.Pqueue.min_priority heap = -.p.gain do
            match pop () with
            | None -> ()
            | Some q ->
              if scan_compare q !best < 0 then begin
                ties := !best :: !ties;
                best := q
              end
              else ties := q :: !ties
          done;
          List.iter (fun q -> push q q.gain) !ties;
          Some !best
    in
    (* one key per connected block pair, in arc order *)
    let keys = Hashtbl.create ~random:false 64 in
    Array.iter
      (fun (a : Cfg.arc) ->
        let key = (min a.src a.dst * n) + max a.src a.dst in
        if a.src <> a.dst && not (Hashtbl.mem keys key) then begin
          Hashtbl.add keys key ();
          add_pair a.src a.dst
        end)
      (Cfg.arcs cfg);
    for i = 0 to !n_pairs - 1 do
      restale !pairs.(i)
    done;
    (* while pair [p] merges, [mark.(o) = p.id] for each partner o of x *)
    let mark = Array.make n (-1) in
    let rec iterate () =
      match pick () with
      | None -> ()
      | Some p ->
        (* merge y into x with the winning sequence *)
        let x = chains.(p.x) and y = chains.(p.y) in
        let xs = x.blocks_seq and ys = y.blocks_seq in
        let seq = Array.init (Array.length xs + Array.length ys) (block_at xs ys p.cut) in
        x.blocks_seq <- seq;
        x.size <- x.size + y.size;
        x.weight <- x.weight +. y.weight;
        y.alive <- false;
        Array.iteri
          (fun k id ->
            chain_of.(id) <- x.cid;
            pos.(id) <- k;
            off.(id) <- (if k = 0 then 0 else off.(seq.(k - 1)) + size.(seq.(k - 1))))
          seq;
        chain_score.(x.cid) <- p.merged_score;
        (* re-point y's pairs to x: the keys x lacks enter in reverse scan
           order *)
        List.iter (fun q -> mark.(other q x.cid) <- p.id) links.(x.cid);
        let moved = Array.of_list (List.filter (fun q -> other q y.cid <> x.cid) links.(y.cid)) in
        Array.sort (fun q r -> scan_compare r q) moved;
        Array.iter
          (fun q ->
            let o = other q y.cid in
            if mark.(o) <> p.id then add_pair x.cid o)
          moved;
        links.(y.cid) <- [];
        (* x changed, so its pairs are stale *)
        List.iter (fun q -> if live q then restale q) links.(x.cid);
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
