type fid = Hhbc.Instr.fid

type events = {
  on_block : fid -> int -> unit;
  on_arc : fid -> src:int -> dst:int -> unit;
  on_call : caller:fid -> site:int -> callee:fid -> unit;
  on_func_entry : fid -> unit;
  on_func_exit : fid -> unit;
  on_prop_access : Hhbc.Instr.cid -> Hhbc.Instr.nid -> addr:int -> write:bool -> unit;
}

let no_events =
  {
    on_block = (fun _ _ -> ());
    on_arc = (fun _ ~src:_ ~dst:_ -> ());
    on_call = (fun ~caller:_ ~site:_ ~callee:_ -> ());
    on_func_entry = (fun _ -> ());
    on_func_exit = (fun _ -> ());
    on_prop_access = (fun _ _ ~addr:_ ~write:_ -> ());
  }

type func_counts = { blocks : int array; entries : int ref }
type call_counts = { callee : fid; at_site : int ref; in_graph : int ref }

type tier1 = {
  func : fid -> func_counts;
  total_entries : int ref;
  arc : fid -> src:int -> dst:int -> int ref;
  call : caller:fid -> site:int -> callee:fid -> call_counts;
  prop : Hhbc.Instr.cid -> Hhbc.Instr.nid -> int ref;
}

type arc_row = { mutable dsts : int array; mutable slots : int array; mutable len : int }
type arcs = { rows : (int, arc_row) Hashtbl.t; mutable count : float array; mutable n : int }

let new_arcs () = { rows = Hashtbl.create 16; count = [||]; n = 0 }

let arc_find a ~src ~dst =
  match Hashtbl.find a.rows src with
  | exception Not_found -> -1
  | r ->
    let i = ref 0 in
    while !i < r.len && r.dsts.(!i) <> dst do
      incr i
    done;
    if !i < r.len then r.slots.(!i) else -1

(* [a] grown by one slot at count 0 *)
let new_slot a =
  if a.n = Array.length a.count then begin
    let count = Array.make (max 8 (2 * a.n)) 0. in
    Array.blit a.count 0 count 0 a.n;
    a.count <- count
  end;
  a.count.(a.n) <- 0.;
  a.n <- a.n + 1;
  a.n - 1

let arc_slot a ~src ~dst =
  match arc_find a ~src ~dst with
  | -1 ->
    let r =
      match Hashtbl.find a.rows src with
      | r -> r
      | exception Not_found ->
        let r = { dsts = [||]; slots = [||]; len = 0 } in
        Hashtbl.add a.rows src r;
        r
    in
    if r.len = Array.length r.dsts then begin
      let cap = max 2 (2 * r.len) in
      let dsts = Array.make cap 0 and slots = Array.make cap 0 in
      Array.blit r.dsts 0 dsts 0 r.len;
      Array.blit r.slots 0 slots 0 r.len;
      r.dsts <- dsts;
      r.slots <- slots
    end;
    let slot = new_slot a in
    r.dsts.(r.len) <- dst;
    r.slots.(r.len) <- slot;
    r.len <- r.len + 1;
    slot
  | slot -> slot

type sink =
  | Count of { counts : unit -> float array; arcs : unit -> arcs }
  | Emit of { on_vblock : src:int -> int -> unit; on_varc : src:int -> dst:int -> unit }

type translation = {
  root : fid;
  node_fid : int array;
  main : int array array;
  child : int array array;
  slow : int array array;
  sink : sink;
  mutable counts : float array;
  mutable arcs : arcs;
  mutable arc_cache : int array;
}

(* stands for "not resolved yet" *)
let no_arcs = new_arcs ()

let translation ~root ~node_fid ~main ~child ~slow sink =
  { root; node_fid; main; child; slow; sink; counts = [||]; arcs = no_arcs; arc_cache = [||] }

type xcalls = {
  entry : fid -> int ref;
  edge : caller:fid -> callee:fid -> int ref;
}

type data = { load : addr:int -> unit; store : addr:int -> unit }

type tier2 = { lookup : fid -> translation option; xcalls : xcalls option; data : data option }

type t = Off | Events of events | Tier1 of tier1 | Tier2 of tier2

let none = Off
