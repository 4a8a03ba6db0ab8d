type t = {
  on_block : Hhbc.Instr.fid -> int -> unit;
  on_arc : Hhbc.Instr.fid -> src:int -> dst:int -> unit;
  on_call : caller:Hhbc.Instr.fid -> site:int -> callee:Hhbc.Instr.fid -> unit;
  on_func_entry : Hhbc.Instr.fid -> unit;
  on_func_exit : Hhbc.Instr.fid -> unit;
  on_prop_access : Hhbc.Instr.cid -> Hhbc.Instr.nid -> addr:int -> write:bool -> unit;
}

let none =
  {
    on_block = (fun _ _ -> ());
    on_arc = (fun _ ~src:_ ~dst:_ -> ());
    on_call = (fun ~caller:_ ~site:_ ~callee:_ -> ());
    on_func_entry = (fun _ -> ());
    on_func_exit = (fun _ -> ());
    on_prop_access = (fun _ _ ~addr:_ ~write:_ -> ());
  }
