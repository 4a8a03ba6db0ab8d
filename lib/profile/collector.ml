let probes counters =
  {
    Interp.Probes.on_block = (fun fid bb -> Counters.record_block counters fid bb);
    on_arc = (fun fid ~src ~dst -> Counters.record_arc counters fid ~src ~dst);
    on_call = (fun ~caller ~site ~callee -> Counters.record_call counters ~caller ~site ~callee);
    on_func_entry = (fun fid -> Counters.record_func_entry counters fid);
    on_func_exit = (fun _ -> ());
    on_prop_access =
      (fun cid nid ~addr:_ ~write:_ -> Counters.record_prop_access counters cid nid);
  }
