type t = {
  units : Unit_def.t array;
  funcs : Func.t array;
  classes : Class_def.t array;
  strings : string array;
  static_arrays : Value.t array array;
  names : string array;
  ctors : int option array;
}

let func t fid = t.funcs.(fid)
let cls t cid = t.classes.(cid)
let unit_of t uid = t.units.(uid)
let string t sid = t.strings.(sid)
let static_array t aid = t.static_arrays.(aid)
let name t nid = t.names.(nid)
let n_funcs t = Array.length t.funcs
let n_classes t = Array.length t.classes
let n_units t = Array.length t.units
let n_strings t = Array.length t.strings
let n_static_arrays t = Array.length t.static_arrays
let n_names t = Array.length t.names

let find_by_name arr get_name target =
  let n = Array.length arr in
  let rec scan i =
    if i >= n then None else if String.equal (get_name arr.(i)) target then Some arr.(i) else scan (i + 1)
  in
  scan 0

let find_func_by_name t nm = find_by_name t.funcs (fun (f : Func.t) -> f.name) nm
let find_class_by_name t nm = find_by_name t.classes (fun (c : Class_def.t) -> c.name) nm

let find_name t s =
  let n = Array.length t.names in
  let rec scan i = if i >= n then None else if String.equal t.names.(i) s then Some i else scan (i + 1) in
  scan 0

let is_ancestor t ~ancestor ~cls:c =
  let rec walk c =
    if c = ancestor then true
    else
      match t.classes.(c).Class_def.parent with
      | None -> false
      | Some p -> walk p
  in
  walk c

let resolve_method t cid nid =
  let rec walk c =
    match Class_def.find_method t.classes.(c) nid with
    | Some fid -> Some fid
    | None -> (
      match t.classes.(c).Class_def.parent with
      | None -> None
      | Some p -> walk p)
  in
  walk cid

let ctor_of t cid = t.ctors.(cid)

(* Hoisted at load time so [New] never does a per-allocation name lookup.
   Defensive against repos that fail {!validate} (out-of-range or cyclic
   parent chains): the walk is bounded by the class count and range-checked,
   resolving to [None] rather than looping or raising. *)
let compute_ctors (classes : Class_def.t array) (names : string array) =
  let n = Array.length classes in
  let ctor_nid =
    let rec scan i =
      if i >= Array.length names then None
      else if String.equal names.(i) "__construct" then Some i
      else scan (i + 1)
    in
    scan 0
  in
  match ctor_nid with
  | None -> Array.make n None
  | Some nid ->
    Array.init n (fun cid ->
        let rec walk c steps =
          if c < 0 || c >= n || steps > n then None
          else
            match Class_def.find_method classes.(c) nid with
            | Some fid -> Some fid
            | None -> (
              match classes.(c).Class_def.parent with
              | None -> None
              | Some p -> walk p (steps + 1))
        in
        walk cid 0)

let total_bytecode_size t = Array.fold_left (fun acc f -> acc + Func.bytecode_size f) 0 t.funcs

(* FNV-1a over the repo's structure: entity counts, function names/bodies,
   interned strings and names.  Two different application builds virtually
   never collide, while re-loading the same build always agrees — which is
   all the package fingerprint gate needs (it is not a cryptographic hash). *)
let fingerprint t =
  (* Explicit per-field FNV-1a: every entity count, function name + body
     (field-by-field via Instr.fnv_fold, never Hashtbl.hash — which caps
     traversal and is not stable across OCaml versions), class names,
     interned strings and names. *)
  let h = ref Instr.fnv_basis in
  let mix v = h := Instr.fnv_mix !h v in
  let mix_s s = h := Instr.fnv_string !h s in
  mix (Array.length t.units);
  mix (Array.length t.funcs);
  mix (Array.length t.classes);
  mix (Array.length t.strings);
  mix (Array.length t.static_arrays);
  mix (Array.length t.names);
  Array.iter
    (fun (f : Func.t) ->
      mix_s f.Func.name;
      mix (Array.length f.Func.body);
      Array.iter (fun instr -> h := Instr.fnv_fold !h instr) f.Func.body)
    t.funcs;
  Array.iter (fun (c : Class_def.t) -> mix_s c.Class_def.name) t.classes;
  Array.iter mix_s t.strings;
  Array.iter mix_s t.names;
  (* varint-encodable: the package wire format carries it as a non-negative
     integer *)
  !h land max_int

let validate t =
  let n_f = Array.length t.funcs in
  let n_c = Array.length t.classes in
  let n_s = Array.length t.strings in
  let n_a = Array.length t.static_arrays in
  let n_n = Array.length t.names in
  let error = ref None in
  let fail fmt = Format.kasprintf (fun s -> if !error = None then error := Some s) fmt in
  (* class parent chains must be acyclic and in range *)
  Array.iteri
    (fun i (c : Class_def.t) ->
      match c.parent with
      | None -> ()
      | Some p ->
        if p < 0 || p >= n_c then fail "class %s: parent c%d out of range" c.name p
        else begin
          (* cycle check via two-pointer walk *)
          let step x =
            match t.classes.(x).Class_def.parent with Some y -> Some y | None -> None
          in
          let rec race slow fast =
            match (step slow, Option.bind (step fast) step) with
            | Some s, Some f -> if s = f then fail "class %s: inheritance cycle" c.name else race s f
            | _, _ -> ()
          in
          race i i
        end)
    t.classes;
  Array.iter
    (fun (f : Func.t) ->
      (match Func.validate f with Ok () -> () | Error msg -> fail "%s" msg);
      Array.iter
        (fun instr ->
          match instr with
          | Instr.Call (fid, _) ->
            if fid < 0 || fid >= n_f then fail "function %s: calls undefined f%d" f.name fid
          | Instr.New (cid, _) | Instr.InstanceOf cid ->
            if cid < 0 || cid >= n_c then fail "function %s: references undefined c%d" f.name cid
          | Instr.LitStr sid ->
            if sid < 0 || sid >= n_s then fail "function %s: references undefined s%d" f.name sid
          | Instr.LitArr aid ->
            if aid < 0 || aid >= n_a then fail "function %s: references undefined a%d" f.name aid
          | Instr.CallMethod (nid, _) | Instr.GetProp nid | Instr.SetProp nid ->
            if nid < 0 || nid >= n_n then fail "function %s: references undefined n%d" f.name nid
          | _ -> ())
        f.body)
    t.funcs;
  match !error with Some msg -> Error msg | None -> Ok ()

module Builder = struct
  type repo = t

  type b = {
    mutable units_rev : Unit_def.t list;
    mutable n_units : int;
    funcs : (int, Func.t option) Hashtbl.t;
    mutable n_funcs : int;
    classes : (int, Class_def.t option) Hashtbl.t;
    mutable n_classes : int;
    string_ids : (string, int) Hashtbl.t;
    mutable strings_rev : string list;
    mutable n_strings : int;
    name_ids : (string, int) Hashtbl.t;
    mutable names_rev : string list;
    mutable n_names : int;
    mutable arrays_rev : Value.t array list;
    mutable n_arrays : int;
  }

  let create () =
    {
      units_rev = [];
      n_units = 0;
      funcs = Hashtbl.create 64;
      n_funcs = 0;
      classes = Hashtbl.create 16;
      n_classes = 0;
      string_ids = Hashtbl.create 64;
      strings_rev = [];
      n_strings = 0;
      name_ids = Hashtbl.create 64;
      names_rev = [];
      n_names = 0;
      arrays_rev = [];
      n_arrays = 0;
    }

  let intern_string b s =
    match Hashtbl.find_opt b.string_ids s with
    | Some id -> id
    | None ->
      let id = b.n_strings in
      Hashtbl.add b.string_ids s id;
      b.strings_rev <- s :: b.strings_rev;
      b.n_strings <- id + 1;
      id

  let intern_name b s =
    match Hashtbl.find_opt b.name_ids s with
    | Some id -> id
    | None ->
      let id = b.n_names in
      Hashtbl.add b.name_ids s id;
      b.names_rev <- s :: b.names_rev;
      b.n_names <- id + 1;
      id

  let add_static_array b arr =
    let id = b.n_arrays in
    b.arrays_rev <- arr :: b.arrays_rev;
    b.n_arrays <- id + 1;
    id

  let reserve_func b =
    let id = b.n_funcs in
    Hashtbl.replace b.funcs id None;
    b.n_funcs <- id + 1;
    id

  let set_func b id f = Hashtbl.replace b.funcs id (Some { f with Func.id })

  let add_func b f =
    let id = reserve_func b in
    set_func b id f;
    id

  let reserve_class b =
    let id = b.n_classes in
    Hashtbl.replace b.classes id None;
    b.n_classes <- id + 1;
    id

  let set_class b id c = Hashtbl.replace b.classes id (Some { c with Class_def.id })

  let add_class b c =
    let id = reserve_class b in
    set_class b id c;
    id

  let add_unit b u =
    let id = b.n_units in
    b.units_rev <- { u with Unit_def.id = id } :: b.units_rev;
    b.n_units <- id + 1;
    id

  let finish b =
    let funcs =
      Array.init b.n_funcs (fun i ->
          match Hashtbl.find_opt b.funcs i with
          | Some (Some f) -> f
          | Some None | None ->
            invalid_arg (Printf.sprintf "Repo.Builder.finish: function f%d reserved but never set" i))
    in
    let classes =
      Array.init b.n_classes (fun i ->
          match Hashtbl.find_opt b.classes i with
          | Some (Some c) -> c
          | Some None | None ->
            invalid_arg (Printf.sprintf "Repo.Builder.finish: class c%d reserved but never set" i))
    in
    let names = Array.of_list (List.rev b.names_rev) in
    {
      units = Array.of_list (List.rev b.units_rev);
      funcs;
      classes;
      strings = Array.of_list (List.rev b.strings_rev);
      static_arrays = Array.of_list (List.rev b.arrays_rev);
      names;
      ctors = compute_ctors classes names;
    }
end

let pp_summary fmt t =
  Format.fprintf fmt "repo: %d units, %d funcs, %d classes, %d strings, %d arrays, %d KB bytecode"
    (Array.length t.units) (Array.length t.funcs) (Array.length t.classes)
    (Array.length t.strings) (Array.length t.static_arrays)
    (total_bytecode_size t / 1024)
