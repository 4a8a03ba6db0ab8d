(* Reference Ext-TSP layout: the greedy chain merging exactly as it was
   before the optimizer cached merge gains, kept verbatim as a test oracle.
   Every merge iteration re-scores every connected chain pair and builds
   each candidate sequence; [Layout.Exttsp.layout] must return the same
   order on every CFG.  The scan order of the connected-pair table breaks
   ties, so the table is created with [~random:false]: the order it defines
   is the zero-seed one, whatever OCAMLRUNPARAM says. *)

open Layout

type params = {
  forward_window : int;
  backward_window : int;
  forward_scale : float;
  backward_scale : float;
  max_chain_split : int;
}

(* the published constants, which [Layout.Exttsp] fixes *)
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
let arc_score params ~weight ~src_end ~dst =
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

(* --- greedy chain merging --- *)

type chain = {
  cid : int;
  mutable blocks_seq : int array;  (** layout order within the chain *)
  mutable size : int;
  mutable weight : float;
  mutable alive : bool;
}

(* Evaluate the Ext-TSP score restricted to arcs internal to a hypothetical
   ordered block sequence. *)
let seq_score params cfg block_sizes in_seq seq =
  (* offsets within the sequence *)
  let start = Hashtbl.create (Array.length seq * 2) in
  let stop = Hashtbl.create (Array.length seq * 2) in
  let off = ref 0 in
  Array.iter
    (fun id ->
      Hashtbl.replace start id !off;
      off := !off + block_sizes.(id);
      Hashtbl.replace stop id !off)
    seq;
  let acc = ref 0. in
  Array.iter
    (fun id ->
      List.iter
        (fun (a : Cfg.arc) ->
          if a.src <> a.dst && in_seq a.dst then
            acc :=
              !acc
              +. arc_score params ~weight:a.weight ~src_end:(Hashtbl.find stop a.src)
                   ~dst:(Hashtbl.find start a.dst))
        (Cfg.succs cfg id))
    seq;
  !acc

let layout ?(max_chain_split = default_params.max_chain_split) cfg =
  let params = { default_params with max_chain_split } in
  let blocks = Cfg.blocks cfg in
  let n = Array.length blocks in
  if n = 0 then [||]
  else if n = 1 then [| 0 |]
  else begin
    let entry = Cfg.entry cfg in
    let block_sizes = Array.map (fun b -> b.Cfg.size) blocks in
    let chains = Array.init n (fun i ->
        { cid = i; blocks_seq = [| i |]; size = blocks.(i).Cfg.size; weight = blocks.(i).Cfg.weight; alive = true })
    in
    let chain_of = Array.init n (fun i -> i) in
    let member = Array.make n false in
    (* score of a chain's internal arcs, cached *)
    let chain_score = Array.make n 0. in
    let compute_chain_score c =
      Array.iter (fun id -> member.(id) <- true) c.blocks_seq;
      let s = seq_score params cfg block_sizes (fun id -> member.(id)) c.blocks_seq in
      Array.iter (fun id -> member.(id) <- false) c.blocks_seq;
      s
    in
    (* candidate merged sequences of chains x (receiver) and y *)
    let merge_candidates x y =
      let xs = x.blocks_seq and ys = y.blocks_seq in
      let base = [ Array.append xs ys; Array.append ys xs ] in
      let with_splits =
        if Array.length xs <= params.max_chain_split && Array.length xs > 1 then begin
          (* insert y at each interior split point of x *)
          let variants = ref [] in
          for cut = 1 to Array.length xs - 1 do
            let x1 = Array.sub xs 0 cut and x2 = Array.sub xs cut (Array.length xs - cut) in
            variants := Array.concat [ x1; ys; x2 ] :: !variants
          done;
          !variants
        end
        else []
      in
      base @ with_splits
    in
    (* entry block must stay first: reject candidates placing anything before it *)
    let valid_seq seq = if Array.exists (fun id -> id = entry) seq then seq.(0) = entry else true in
    let best_merge x y =
      let joint_member id = member.(id) in
      Array.iter (fun id -> member.(id) <- true) x.blocks_seq;
      Array.iter (fun id -> member.(id) <- true) y.blocks_seq;
      let best = ref None in
      List.iter
        (fun seq ->
          if valid_seq seq then begin
            let s = seq_score params cfg block_sizes joint_member seq in
            match !best with
            | Some (bs, _) when bs >= s -> ()
            | _ -> best := Some (s, seq)
          end)
        (merge_candidates x y);
      Array.iter (fun id -> member.(id) <- false) x.blocks_seq;
      Array.iter (fun id -> member.(id) <- false) y.blocks_seq;
      match !best with
      | None -> None
      | Some (s, seq) ->
        let gain = s -. chain_score.(x.cid) -. chain_score.(y.cid) in
        if gain > 1e-9 then Some (gain, seq) else None
    in
    Array.iter (fun c -> chain_score.(c.cid) <- compute_chain_score c) chains;
    (* Only chain pairs connected by at least one arc are merge candidates. *)
    let connected = Hashtbl.create ~random:false 64 in
    let note_pair a b = if a <> b then Hashtbl.replace connected (min a b, max a b) () in
    Array.iter (fun (a : Cfg.arc) -> note_pair chain_of.(a.src) chain_of.(a.dst)) (Cfg.arcs cfg);
    let rec iterate () =
      (* find the best gain over all connected alive chain pairs *)
      let best = ref None in
      Hashtbl.iter
        (fun (ca, cb) () ->
          let x = chains.(ca) and y = chains.(cb) in
          if x.alive && y.alive && x.cid <> y.cid then
            match best_merge x y with
            | None -> ()
            | Some (gain, seq) -> (
              match !best with
              | Some (bg, _, _, _) when bg >= gain -> ()
              | _ -> best := Some (gain, x, y, seq)))
        connected;
      match !best with
      | None -> ()
      | Some (_, x, y, seq) ->
        (* merge y into x with the winning sequence *)
        x.blocks_seq <- seq;
        x.size <- x.size + y.size;
        x.weight <- x.weight +. y.weight;
        y.alive <- false;
        Array.iter (fun id -> chain_of.(id) <- x.cid) seq;
        chain_score.(x.cid) <- compute_chain_score x;
        (* re-point connectivity of y to x *)
        let to_add = ref [] in
        Hashtbl.iter
          (fun (ca, cb) () ->
            if ca = y.cid || cb = y.cid then begin
              let other = if ca = y.cid then cb else ca in
              if other <> x.cid then to_add := other :: !to_add
            end)
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
