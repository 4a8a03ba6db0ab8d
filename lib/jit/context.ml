module IT = Vasm.Inline_tree
module VF = Vasm.Vfunc

type translation = {
  on_vblock : int -> unit;
  on_varc : src:int -> dst:int -> unit;
}

type handler = {
  translation : VF.t -> translation;
  on_xcall : caller:Hhbc.Instr.fid -> callee:Hhbc.Instr.fid -> unit;
  on_prop : addr:int -> write:bool -> unit;
}

(* A translation with everything the replay asks of it resolved once: the
   handler's callbacks, and per inline node and call site the inlined
   child node (-1: none). *)
type trans = {
  vf : VF.t;
  tr : translation;
  children : int array array;
}

(* Per-function state, resolved on the function's first entry. *)
type func = {
  fid : Hhbc.Instr.fid;
  body : Hhbc.Instr.t array;
  bb_of : int array;  (* instruction index -> bytecode block *)
  own : trans option;  (* the function's own translation *)
  (* polymorphic inline caches: per call site, the first [pic_entries]
     distinct callees dispatch on the fast path (-1: free slot); anything
     else executes the site's slow-path block (generic dispatch) *)
  pics : int array;
}

let pic_entries = 2

(* One shadow-stack frame; frames are preallocated and reused. *)
type frame = {
  mutable f : func;
  mutable ctx : trans option;  (* translation the frame executes in *)
  mutable node : int;  (* inline-tree node of [ctx] *)
  mutable inlined : bool;  (* ctx shared with the caller's translation *)
  mutable last_block : int;  (* last vasm block executed in this frame *)
}

type state = {
  repo : Hhbc.Repo.t;
  lookup : Hhbc.Instr.fid -> VF.t option;
  h : handler;
  funcs : func option array;
  mutable frames : frame array;
  mutable depth : int;
  (* the pending call (caller, site, callee); callee -1 when none *)
  mutable p_caller : Hhbc.Instr.fid;
  mutable p_site : int;
  mutable p_callee : Hhbc.Instr.fid;
}

(* [table.(node).(i)], or -1 outside the table: a translation's tables are
   indexed by its own nodes' blocks and sites *)
let cell table node i =
  if node < Array.length table && i >= 0 && i < Array.length table.(node) then table.(node).(i)
  else -1

let resolve_trans st vf =
  let children =
    Array.map
      (fun (n : IT.node) ->
        let a = Array.make (Array.length (Hhbc.Repo.func st.repo n.IT.fid).Hhbc.Func.body) (-1) in
        List.iter
          (fun (site, child) -> if site >= 0 && site < Array.length a then a.(site) <- child)
          n.IT.children;
        a)
      (IT.nodes vf.VF.tree)
  in
  { vf; tr = st.h.translation vf; children }

let func st fid =
  match st.funcs.(fid) with
  | Some f -> f
  | None ->
    let fn = Hhbc.Repo.func st.repo fid in
    let bb_of = Array.make (Array.length fn.Hhbc.Func.body) 0 in
    Array.iter
      (fun (b : Hhbc.Func.block) ->
        for i = b.start to b.start + b.len - 1 do
          bb_of.(i) <- b.bb_id
        done)
      (Hhbc.Func.basic_blocks fn);
    let f =
      {
        fid;
        body = fn.Hhbc.Func.body;
        bb_of;
        own = Option.map (resolve_trans st) (st.lookup fid);
        pics = Array.make (pic_entries * Array.length fn.Hhbc.Func.body) (-1);
      }
    in
    st.funcs.(fid) <- Some f;
    f

(* [true] when this dynamic callee misses the site's inline cache. *)
let pic_miss f ~site ~callee =
  let base = site * pic_entries in
  let i = ref 0 in
  while !i < pic_entries && f.pics.(base + !i) >= 0 && f.pics.(base + !i) <> callee do
    incr i
  done;
  if !i = pic_entries then true
  else begin
    f.pics.(base + !i) <- callee;
    false
  end

let is_method_site f site =
  match f.body.(site) with
  | Hhbc.Instr.CallMethod _ | Hhbc.Instr.New _ -> true
  | _ -> false

let push st f ~ctx ~node ~inlined ~last_block =
  if st.depth = Array.length st.frames then
    st.frames <-
      Array.init (max 16 (2 * st.depth)) (fun i ->
          if i < st.depth then st.frames.(i)
          else { f; ctx = None; node = 0; inlined = false; last_block = -1 });
  let fr = st.frames.(st.depth) in
  fr.f <- f;
  fr.ctx <- ctx;
  fr.node <- node;
  fr.inlined <- inlined;
  fr.last_block <- last_block;
  st.depth <- st.depth + 1

(* Out-of-line entry: the callee runs in its own translation, if any. *)
let push_own st f ~caller =
  st.h.on_xcall ~caller ~callee:f.fid;
  push st f ~ctx:f.own ~node:0 ~inlined:false ~last_block:(-1)

(* A failed guard at [site] of the top frame runs the site's slow path. *)
let take_slow_path top t ~site =
  let slow = cell t.vf.VF.slow_of top.node top.f.bb_of.(site) in
  if slow >= 0 then begin
    if top.last_block >= 0 then t.tr.on_varc ~src:top.last_block ~dst:slow;
    t.tr.on_vblock slow;
    top.last_block <- slow
  end

let enter st fid =
  let f = func st fid in
  let callee = st.p_callee and caller_fid = st.p_caller and site = st.p_site in
  st.p_callee <- -1;
  if callee <> fid || st.depth = 0 || st.frames.(st.depth - 1).f.fid <> caller_fid then
    push_own st f ~caller:(-1)
  else
    let top = st.frames.(st.depth - 1) in
    match top.ctx with
    | None -> push_own st f ~caller:caller_fid
    | Some t ->
      let child = cell t.children top.node site in
      if child >= 0 && (IT.node t.vf.VF.tree child).IT.fid = fid then
        (* inlined: stay inside the caller's translation *)
        push st f ~ctx:top.ctx ~node:child ~inlined:true ~last_block:top.last_block
      else begin
        (* an inline guard failure, or dynamic dispatch through a
           polymorphic inline cache whose callees beyond the cached set run
           the generic (slow) path *)
        if child >= 0 || (is_method_site top.f site && pic_miss top.f ~site ~callee:fid) then
          take_slow_path top t ~site;
        push_own st f ~caller:t.vf.VF.root_fid
      end

let exit_frame st fid =
  if st.depth > 0 && st.frames.(st.depth - 1).f.fid = fid then begin
    st.depth <- st.depth - 1;
    let top = st.frames.(st.depth) in
    (* inlined return: arc back into the caller's current block *)
    match top.ctx with
    | Some t when top.inlined && st.depth > 0 ->
      let parent = st.frames.(st.depth - 1) in
      if top.last_block >= 0 && parent.last_block >= 0 && parent.last_block <> top.last_block then
        t.tr.on_varc ~src:top.last_block ~dst:parent.last_block
    | Some _ | None -> ()
  end

let block st fid bb =
  if st.depth > 0 then begin
    let top = st.frames.(st.depth - 1) in
    if top.f.fid = fid then
      match top.ctx with
      | Some t ->
        let blk = cell t.vf.VF.main_of top.node bb in
        if blk >= 0 then begin
          if top.last_block >= 0 then t.tr.on_varc ~src:top.last_block ~dst:blk;
          t.tr.on_vblock blk;
          top.last_block <- blk
        end
      | None -> ()
  end

let probes repo ~lookup handler =
  let st =
    {
      repo;
      lookup;
      h = handler;
      funcs = Array.make (Hhbc.Repo.n_funcs repo) None;
      frames = [||];
      depth = 0;
      p_caller = -1;
      p_site = 0;
      p_callee = -1;
    }
  in
  {
    Interp.Probes.on_block = (fun fid bb -> block st fid bb);
    on_arc = (fun _ ~src:_ ~dst:_ -> ());
    on_call =
      (fun ~caller ~site ~callee ->
        st.p_caller <- caller;
        st.p_site <- site;
        st.p_callee <- callee);
    on_func_entry = (fun fid -> enter st fid);
    on_func_exit = (fun fid -> exit_frame st fid);
    on_prop_access = (fun _ _ ~addr ~write -> handler.on_prop ~addr ~write);
  }
