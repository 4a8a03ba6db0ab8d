type t = {
  id : Instr.fid;
  name : string;
  unit_id : int;
  class_id : Instr.cid option;
  n_params : int;
  n_locals : int;
  body : Instr.t array;
}

type block = { bb_id : int; start : int; len : int; succs : int list }

let basic_blocks f =
  let n = Array.length f.body in
  if n = 0 then [||]
  else begin
    let leader = Array.make n false in
    leader.(0) <- true;
    Array.iteri
      (fun i instr ->
        List.iter
          (fun target -> if target >= 0 && target < n then leader.(target) <- true)
          (Instr.branch_targets instr);
        if Instr.is_terminal instr && i + 1 < n then leader.(i + 1) <- true)
      f.body;
    (* Map instruction index -> block id, then build blocks. *)
    let block_of = Array.make n 0 in
    let count = ref 0 in
    for i = 0 to n - 1 do
      if leader.(i) && i > 0 then incr count;
      block_of.(i) <- !count
    done;
    let n_blocks = !count + 1 in
    let starts = Array.make n_blocks 0 in
    for i = n - 1 downto 0 do
      starts.(block_of.(i)) <- i
    done;
    Array.init n_blocks (fun b ->
        let start = starts.(b) in
        let stop = if b + 1 < n_blocks then starts.(b + 1) else n in
        let last = f.body.(stop - 1) in
        let succs =
          let branch = List.map (fun t -> block_of.(t)) (Instr.branch_targets last) in
          let fallthrough =
            match last with
            | Instr.Jmp _ | Instr.Ret -> []
            | _ when stop < n -> [ block_of.(stop) ]
            | _ -> []
          in
          (* branch targets first: the taken edge, then fall-through *)
          branch @ List.filter (fun s -> not (List.mem s branch)) fallthrough
        in
        { bb_id = b; start; len = stop - start; succs })
  end

let block_of_instr blocks idx =
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if blocks.(mid).start <= idx then search mid hi else search lo (mid - 1)
  in
  search 0 (Array.length blocks - 1)

let bytecode_size f = Array.fold_left (fun acc i -> acc + Instr.byte_size i) 0 f.body

let validate f =
  let n = Array.length f.body in
  if n = 0 then Error (Printf.sprintf "function %s: empty body" f.name)
  else if f.n_params > f.n_locals then
    Error (Printf.sprintf "function %s: n_params (%d) > n_locals (%d)" f.name f.n_params f.n_locals)
  else begin
    let bad = ref None in
    Array.iteri
      (fun i instr ->
        if !bad = None then begin
          List.iter
            (fun target ->
              if target < 0 || target >= n then
                bad := Some (Printf.sprintf "function %s: instr %d jumps out of range (%d)" f.name i target))
            (Instr.branch_targets instr);
          match instr with
          | Instr.LoadLoc l | Instr.StoreLoc l ->
            if l < 0 || l >= f.n_locals then
              bad := Some (Printf.sprintf "function %s: instr %d references local %d/%d" f.name i l f.n_locals)
          | _ -> ()
        end)
      f.body;
    match !bad with
    | Some msg -> Error msg
    | None ->
      if not (Instr.is_terminal f.body.(n - 1)) then
        Error (Printf.sprintf "function %s: body does not end with a terminal" f.name)
      else Ok ()
  end

let pp fmt f =
  Format.fprintf fmt "@[<v 2>function %s (f%d, %d params, %d locals):" f.name f.id f.n_params
    f.n_locals;
  Array.iteri (fun i instr -> Format.fprintf fmt "@,%4d: %a" i Instr.pp instr) f.body;
  Format.fprintf fmt "@]"
