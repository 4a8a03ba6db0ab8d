module Server = Cluster.Server
module Stats = Js_util.Stats

type t = {
  boot_seconds : float;
  peak_rps : float;
  warm_latency : float;
  warm_served : float;
  curve : Stats.Series.t;  (* requests-served -> latency multiplier *)
}

let boot_seconds t = t.boot_seconds
let peak_rps t = t.peak_rps
let warm_served t = t.warm_served

let multiplier t ~served =
  if Stats.Series.length t.curve = 0 then 1.
  else Float.max 1. (Stats.Series.value_at t.curve served)

let build ?(horizon = 1800.) cfg app role =
  let server = Server.create cfg app role in
  let raw = ref [] in
  let t = ref 0. in
  while !t < horizon do
    t := !t +. 1.;
    Server.step server ~dt:1.;
    if Server.serving server && Server.current_latency server > 0. then
      raw := (Server.requests_served server, Server.current_latency server) :: !raw
  done;
  let samples = Array.of_list (List.rev !raw) in
  let n = Array.length samples in
  if n = 0 then
    (* never served within the horizon: degenerate flat curve *)
    {
      boot_seconds = Server.boot_seconds server;
      peak_rps = Server.peak_rps server;
      warm_latency = 0.;
      warm_served = 0.;
      curve = Stats.Series.create ();
    }
  else begin
    let warm_latency = snd samples.(n - 1) in
    let curve = Stats.Series.create () in
    Array.iter
      (fun (served, latency) ->
        Stats.Series.add curve ~time:served
          ~value:(Float.max 1. (latency /. warm_latency)))
      samples;
    {
      boot_seconds = Server.boot_seconds server;
      peak_rps = Server.peak_rps server;
      warm_latency;
      warm_served = fst samples.(n - 1);
      curve;
    }
  end

(* The reference run is deterministic per (config, app, role shape), and a
   push reuses a handful of distinct packages across hundreds of restarts,
   so curves are memoized: one slot for no-Jump-Start boots plus one per
   package content.  The key is every field the server model reads, which
   is all but [bad], so content-equal packages share one curve. *)
type cache = {
  cfg : Server.config;
  app : Workload.Macro_app.t;
  horizon : float;
  mutable nojs : t option;
  mutable consumers : (Server.package * t) list;  (* keyed with [bad = false] *)
}

let create_cache ?(horizon = 1800.) cfg app =
  { cfg; app; horizon; nojs = None; consumers = [] }

let get cache role =
  match role with
  | Server.No_jumpstart -> (
    match cache.nojs with
    | Some c -> c
    | None ->
      let c = build ~horizon:cache.horizon cache.cfg cache.app Server.No_jumpstart in
      cache.nojs <- Some c;
      c)
  | Server.Consumer pkg -> (
    let key = { pkg with Server.bad = false } in
    match List.assoc_opt key cache.consumers with
    | Some c -> c
    | None ->
      let c = build ~horizon:cache.horizon cache.cfg cache.app role in
      cache.consumers <- (key, c) :: cache.consumers;
      c)
