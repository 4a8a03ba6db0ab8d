type node = { id : int; size : int; samples : float }
type call_arc = { caller : int; callee : int; weight : float }

(* Clusters are singly-linked lists of node ids in placement order, with the
   usual union-find-ish representative tracking. *)
type cluster = {
  repr : int;
  mutable members : int list;  (** reversed placement order *)
  mutable csize : int;
  mutable csamples : float;
  mutable alive : bool;
}

let order ~nodes ~arcs ?(max_cluster_size = 2 * 1024 * 1024) () =
  let n = Array.length nodes in
  Array.iteri (fun i nd -> if nd.id <> i then invalid_arg "C3.order: nodes must be indexed by id") nodes;
  let clusters =
    Array.init n (fun i ->
        { repr = i; members = [ i ]; csize = nodes.(i).size; csamples = nodes.(i).samples; alive = true })
  in
  let cluster_of = Array.init n (fun i -> i) in
  (* strongest predecessor arc per callee *)
  let best_pred = Array.make n None in
  Array.iter
    (fun a ->
      if a.caller <> a.callee && a.weight > 0. then
        match best_pred.(a.callee) with
        | Some prev when prev.weight >= a.weight -> ()
        | _ -> best_pred.(a.callee) <- Some a)
    arcs;
  (* process by decreasing hotness (samples), ties by id for determinism *)
  let by_hotness = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = compare nodes.(b).samples nodes.(a).samples in
      if c <> 0 then c else compare a b)
    by_hotness;
  Array.iter
    (fun callee ->
      match best_pred.(callee) with
      | None -> ()
      | Some a ->
        let cu = clusters.(cluster_of.(a.caller)) and cv = clusters.(cluster_of.(callee)) in
        let cold_arc = a.weight < 0.005 *. nodes.(callee).samples in
        if cu.repr <> cv.repr && (not cold_arc) && cu.csize + cv.csize <= max_cluster_size then begin
          (* append callee's cluster after caller's *)
          cu.members <- cv.members @ cu.members;
          cu.csize <- cu.csize + cv.csize;
          cu.csamples <- cu.csamples +. cv.csamples;
          cv.alive <- false;
          List.iter (fun m -> cluster_of.(m) <- cu.repr) cv.members
        end)
    by_hotness;
  let alive = Array.to_list clusters |> List.filter (fun c -> c.alive) in
  let density c = if c.csize = 0 then 0. else c.csamples /. float_of_int c.csize in
  let sorted =
    List.sort
      (fun a b ->
        let c = compare (density b) (density a) in
        if c <> 0 then c else compare a.repr b.repr)
      alive
  in
  Array.of_list (List.concat_map (fun c -> List.rev c.members) sorted)

let weighted_call_distance ~nodes ~arcs order =
  let n = Array.length nodes in
  if Array.length order <> n then invalid_arg "C3.weighted_call_distance: bad order";
  let start = Array.make n 0 in
  let off = ref 0 in
  Array.iter
    (fun id ->
      start.(id) <- !off;
      off := !off + nodes.(id).size)
    order;
  let total_w = ref 0. and acc = ref 0. in
  Array.iter
    (fun a ->
      if a.caller <> a.callee then begin
        let d = abs (start.(a.caller) - start.(a.callee)) in
        acc := !acc +. (a.weight *. float_of_int d);
        total_w := !total_w +. a.weight
      end)
    arcs;
  if !total_w = 0. then 0. else !acc /. !total_w
