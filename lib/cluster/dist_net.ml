module R = Js_util.Rng
module Backoff = Js_util.Backoff

type network = {
  fetch_fail_rate : float;
  fetch_timeout : float;
  latency_mean : float;
  stale_rate : float;
}

let default_network =
  { fetch_fail_rate = 0.; fetch_timeout = 0.; latency_mean = 0.; stale_rate = 0. }

(* The fault record comes from outside input (CLI flags, bench configs).
   NaN fails every ordered comparison, so each check is written to be false
   for it. *)
let validate net (b : Backoff.config) =
  let check ok what = if not ok then invalid_arg ("Dist_net: " ^ what) in
  let rate (name, p) = check (p >= 0. && p <= 1.) (name ^ " must be in [0, 1]") in
  let time (name, x) = check (Float.is_finite x && x >= 0.) (name ^ " must be finite and >= 0") in
  List.iter rate [ ("fetch_fail_rate", net.fetch_fail_rate); ("stale_rate", net.stale_rate) ];
  List.iter time
    [ ("fetch_timeout", net.fetch_timeout); ("latency_mean", net.latency_mean);
      ("backoff.base_delay", b.base_delay); ("backoff.multiplier", b.multiplier);
      ("backoff.max_delay", b.max_delay); ("backoff.jitter", b.jitter) ];
  check (b.max_attempts >= 1) "backoff.max_attempts must be >= 1"

type config = {
  regions : int;
  network : network;
  backoff : Backoff.config;
}

let default_config = { regions = 1; network = default_network; backoff = Backoff.default }

(* Whether the config alone wakes the ladder; disaster windows wake it too,
   per run. *)
let active c =
  let n = c.network in
  n.fetch_fail_rate > 0. || n.fetch_timeout > 0. || n.latency_mean > 0. || n.stale_rate > 0.
  || c.regions > 1

type counters = {
  mutable attempts : int;
  mutable failures : int;
  mutable timeouts : int;
  mutable stale_rejects : int;
  mutable cross_region_fetches : int;
  mutable deliveries : int;
  mutable empty_probes : int;
}

let fresh_counters () =
  {
    attempts = 0;
    failures = 0;
    timeouts = 0;
    stale_rejects = 0;
    cross_region_fetches = 0;
    deliveries = 0;
    empty_probes = 0;
  }

type t = {
  cfg : config;
  replicas : (int * int, Server.package list ref) Hashtbl.t;
  (* One counter shard per fetcher home region.  [fetch ~region:home] only
     touches [shards.(home)], so when the simulator's barrier loop runs
     regions on several domains every shard has a single writer and the fold
     in [counters] — pure integer addition, commutative — reconstructs the
     same totals a one-domain run accumulates. *)
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
  validate cfg.network cfg.backoff;
  {
    cfg;
    replicas = Hashtbl.create 16;
    shards = Array.init cfg.regions (fun _ -> fresh_counters ());
    down_from = Array.make cfg.regions infinity;
    part_from = Array.make cfg.regions infinity;
    part_until = Array.make cfg.regions infinity;
    has_faults = false;
  }

let counters t =
  let acc = fresh_counters () in
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
  (* draw-identical to [Rng.pick rng (Array.of_list replicas)] *)
  let pick ~region =
    match Hashtbl.find_opt t.replicas (region, bucket) with
    | None | Some { contents = [] } -> None
    | Some { contents = l } -> Some (List.nth l (R.int rng (List.length l)))
  in
  (* The neutrality rule: when nothing can fail, delay or redirect a fetch, it
     is one selection draw.  No counters, no attempt count and no latency
     sample, so every seeded run without faults stays byte-identical to a
     direct pick. *)
  if not (active t.cfg || t.has_faults) then
    match pick ~region:home with
    | None -> Not_found
    | Some pkg -> Delivered (pkg, 0.)
  else begin
    let net = t.cfg.network and backoff = t.cfg.backoff and c = t.shards.(home) in
    let tel f =
      match telemetry with
      | Some s -> f s
      | None -> ()
    in
    let delay = ref 0. in
    (* stays true while every attempt found an empty replica set *)
    let nothing_seen = ref true in
    let fail () =
      c.failures <- c.failures + 1;
      nothing_seen := false;
      tel (fun s -> Js_telemetry.incr s "dist.fetch_failures");
      `Retry
    in
    (* One attempt against one region.  Randomness is consumed strictly in
       this order, each draw guarded by its rate: reachability (no draw),
       failure, latency, the pick, staleness. *)
    let attempt ~region ~cross =
      c.attempts <- c.attempts + 1;
      tel (fun s ->
          Js_telemetry.incr s "dist.fetch_attempts";
          if cross then Js_telemetry.incr s "dist.cross_region");
      if cross then c.cross_region_fetches <- c.cross_region_fetches + 1;
      (* time already spent waiting in this fetch counts: a disaster window
         may open or close; a down target store or a partitioned fetcher
         fails the attempt *)
      let at = now +. !delay in
      if t.has_faults && (region_down t ~region ~now:at || partitioned t ~region:home ~now:at)
      then fail ()
      else if net.fetch_fail_rate > 0. && R.bool rng net.fetch_fail_rate then fail ()
      else begin
        let lat = if net.latency_mean <= 0. then 0. else R.exponential rng ~mean:net.latency_mean in
        if net.fetch_timeout > 0. && lat > net.fetch_timeout then begin
          c.timeouts <- c.timeouts + 1;
          nothing_seen := false;
          delay := !delay +. net.fetch_timeout;
          tel (fun s -> Js_telemetry.incr s "dist.timeouts");
          `Retry
        end
        else
          match pick ~region with
          | None ->
            c.empty_probes <- c.empty_probes + 1;
            `Empty
          | Some pkg ->
            nothing_seen := false;
            delay := !delay +. lat;
            (* a stale replica still holds the previous release's package;
               the consumer's fingerprint gate rejects it and the fetch
               retries *)
            if net.stale_rate > 0. && R.bool rng net.stale_rate then begin
              c.stale_rejects <- c.stale_rejects + 1;
              tel (fun s -> Js_telemetry.incr s "dist.stale_rejects");
              `Retry
            end
            else begin
              c.deliveries <- c.deliveries + 1;
              tel (fun s ->
                  Js_telemetry.observe s ~lo:0. ~hi:120. ~buckets:24 "dist.fetch_seconds" lat);
              `Delivered pkg
            end
      end
    in
    (* Bounded retries with backoff against the home region, then one
       attempt per foreign region, then give up. *)
    let rec home_attempts k =
      if k >= backoff.Backoff.max_attempts then None
      else
        match attempt ~region:home ~cross:false with
        | `Delivered pkg -> Some pkg
        | `Empty -> None (* a replica set cannot fill up while a fetch waits *)
        | `Retry ->
          if k + 1 < backoff.Backoff.max_attempts then
            delay := !delay +. Backoff.delay backoff rng ~attempt:k;
          home_attempts (k + 1)
    in
    let rec foreign_regions region =
      if region >= t.cfg.regions then None
      else if region = home then foreign_regions (region + 1)
      else
        match attempt ~region ~cross:true with
        | `Delivered pkg -> Some pkg
        | `Empty | `Retry -> foreign_regions (region + 1)
    in
    match home_attempts 0 with
    | Some pkg -> Delivered (pkg, !delay)
    | None -> (
      match foreign_regions 0 with
      | Some pkg -> Delivered (pkg, !delay)
      | None -> if !nothing_seen then Not_found else Unavailable !delay)
  end
