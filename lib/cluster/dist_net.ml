module R = Js_util.Rng
module Backoff = Js_util.Backoff
module DS = Jumpstart.Dist_store

type config = {
  regions : int;
  network : DS.network;
  backoff : Backoff.config;
}

let default_config = { regions = 1; network = DS.default_network; backoff = Backoff.default }

(* Whether the config alone wakes the ladder (see Dist_store's neutrality
   rule); disaster windows wake it too, per run. *)
let active c = DS.network_active c.network || c.regions > 1

type counters = DS.counters = {
  mutable attempts : int;
  mutable failures : int;
  mutable timeouts : int;
  mutable stale_rejects : int;
  mutable cross_region_fetches : int;
  mutable deliveries : int;
  mutable empty_probes : int;
}

type t = {
  cfg : config;
  replicas : (int * int, Server.package list ref) Hashtbl.t;
  (* One counter shard per fetcher home region.  [fetch ~region:home] only
     touches [shards.(home)], so when the parallel simulator runs each region
     on its own domain every shard has a single writer and the fold in
     [counters] — pure integer addition, commutative — reconstructs the same
     totals a sequential run accumulates. *)
  shards : counters array;
  (* Disaster schedules, fixed before the run starts.  Reachability is a pure
     function of simulation time, never of run order, which is what keeps
     epoch-barrier and merged multi-region runs byte-identical. *)
  down_from : float array;  (* region's replica store unreachable from t on *)
  part_from : float array;  (* fetcher-side partition window per region ... *)
  part_until : float array;  (* ... all of a region's attempts fail inside it *)
  mutable has_faults : bool;
}

let create cfg =
  if cfg.regions < 1 then invalid_arg "Dist_net.create: regions < 1";
  DS.validate cfg.network cfg.backoff;
  {
    cfg;
    replicas = Hashtbl.create 16;
    shards = Array.init cfg.regions (fun _ -> DS.fresh_counters ());
    down_from = Array.make cfg.regions infinity;
    part_from = Array.make cfg.regions infinity;
    part_until = Array.make cfg.regions infinity;
    has_faults = false;
  }

let counters t =
  let acc = DS.fresh_counters () in
  Array.iter
    (fun c ->
      acc.attempts <- acc.attempts + c.attempts;
      acc.failures <- acc.failures + c.failures;
      acc.timeouts <- acc.timeouts + c.timeouts;
      acc.stale_rejects <- acc.stale_rejects + c.stale_rejects;
      acc.cross_region_fetches <- acc.cross_region_fetches + c.cross_region_fetches;
      acc.deliveries <- acc.deliveries + c.deliveries;
      acc.empty_probes <- acc.empty_probes + c.empty_probes)
    t.shards;
  acc
let config t = t.cfg

let check_region t region name =
  if region < 0 || region >= t.cfg.regions then invalid_arg name

let set_region_down t ~region ~from_ =
  check_region t region "Dist_net.set_region_down";
  if Float.is_nan from_ then invalid_arg "Dist_net.set_region_down: NaN";
  t.down_from.(region) <- from_;
  t.has_faults <- true

let set_region_partition t ~region ~from_ ~until =
  check_region t region "Dist_net.set_region_partition";
  if Float.is_nan from_ || Float.is_nan until || until < from_ then
    invalid_arg "Dist_net.set_region_partition: bad window";
  t.part_from.(region) <- from_;
  t.part_until.(region) <- until;
  t.has_faults <- true

let region_down t ~region ~now = now >= t.down_from.(region)

let partitioned t ~region ~now =
  now >= t.part_from.(region) && now < t.part_until.(region)

let slot t ~region ~bucket =
  match Hashtbl.find_opt t.replicas (region, bucket) with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.add t.replicas (region, bucket) l;
    l

(* Replicate into every region, fetchable at once.  Replication into a down
   region fails outright; its consumers must go cross-region. *)
let publish t ~now ~bucket pkg =
  for region = 0 to t.cfg.regions - 1 do
    if not (region_down t ~region ~now) then begin
      let l = slot t ~region ~bucket in
      l := pkg :: !l
    end
  done

type outcome =
  | Delivered of Server.package * float
  | Unavailable of float
  | Not_found

let fetch ?telemetry t rng ~now ~region:home ~bucket =
  check_region t home "Dist_net.fetch";
  (* a down target store or a partitioned fetcher fails the attempt *)
  let reachable ~region ~at =
    not (region_down t ~region ~now:at || partitioned t ~region:home ~now:at)
  in
  (* draw-identical to [Rng.pick rng (Array.of_list replicas)] *)
  let pick ~region =
    match Hashtbl.find_opt t.replicas (region, bucket) with
    | None | Some { contents = [] } -> None
    | Some { contents = l } -> Some (List.nth l (R.int rng (List.length l)))
  in
  let delivery, delay =
    DS.ladder ?telemetry t.cfg.network t.cfg.backoff t.shards.(home) rng ~now ~home
      ~foreign:(List.filter (fun r -> r <> home) (List.init t.cfg.regions Fun.id))
      ~reachable:(if t.has_faults then Some reachable else None)
      ~pick
        (* a stale replica still holds the previous release's package; the
           consumer's fingerprint gate rejects it and the ladder retries *)
      ~gate:(fun ~stale _ -> if stale then `Retry else `Accept)
  in
  match delivery with
  | DS.Accepted (pkg, _) -> Delivered (pkg, delay)
  | DS.Refused _ | DS.Gave_up _ -> Unavailable delay
  | DS.Absent -> Not_found
