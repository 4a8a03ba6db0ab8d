module R = Js_util.Rng
module Backoff = Js_util.Backoff

type config = {
  regions : int;
  fetch_fail_rate : float;
  fetch_timeout : float;
  fetch_latency_mean : float;
  tail_prob : float;
  tail_alpha : float;
  stale_rate : float;
  cross_region : bool;
  backoff : Backoff.config;
  publish_latency_mean : float;
}

let default_config =
  {
    regions = 1;
    fetch_fail_rate = 0.;
    fetch_timeout = 0.;
    fetch_latency_mean = 0.;
    tail_prob = 0.;
    tail_alpha = 1.5;
    stale_rate = 0.;
    cross_region = false;
    backoff = Backoff.default;
    publish_latency_mean = 0.;
  }

(* The neutrality switch: an inactive network (the default config) must make
   [fetch] consume exactly one RNG draw per successful pick and touch no
   dist.* telemetry, leaving every pre-existing seeded simulation
   byte-identical. *)
let active c =
  c.fetch_fail_rate > 0. || c.fetch_timeout > 0. || c.fetch_latency_mean > 0.
  || c.stale_rate > 0. || c.publish_latency_mean > 0. || c.cross_region || c.regions > 1

type counters = {
  mutable attempts : int;
  mutable failures : int;
  mutable timeouts : int;
  mutable stale_rejects : int;
  mutable cross_region_fetches : int;
  mutable deliveries : int;
  mutable empty_probes : int;
}

(* One replica of a published package in one region, visible to fetches once
   replication (publish latency) has completed. *)
type replica = { pkg : Server.package; visible_from : float }

type t = {
  cfg : config;
  replicas : (int * int, replica list ref) Hashtbl.t;
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

let create cfg =
  if cfg.regions < 1 then invalid_arg "Dist_net.create: regions < 1";
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

(* Replicate into every region.  With publish latency, each region's copy
   becomes visible after an independent exponential replication delay (the
   home copy of a real store is near-instant; we keep the model uniform and
   cheap).  The latency draw is guarded so the default config publishes
   without consuming randomness. *)
let publish t rng ~now ~bucket pkg =
  for region = 0 to t.cfg.regions - 1 do
    (* Replication into a down region fails outright; its consumers must go
       cross-region.  Skipping the latency draw too keeps reachability a pure
       function of time. *)
    if not (region_down t ~region ~now) then begin
      let visible_from =
        if t.cfg.publish_latency_mean <= 0. then now
        else now +. R.exponential rng ~mean:t.cfg.publish_latency_mean
      in
      let l = slot t ~region ~bucket in
      l := { pkg; visible_from } :: !l
    end
  done

let bucket_replicas t ~region ~bucket =
  match Hashtbl.find_opt t.replicas (region, bucket) with
  | None -> []
  | Some l -> !l

type outcome =
  | Delivered of Server.package * float
  | Unavailable of float
  | Not_found

let fetch ?telemetry t rng ~now ~region:home ~bucket =
  check_region t home "Dist_net.fetch";
  let all = bucket_replicas t ~region:home ~bucket in
  if not (active t.cfg || t.has_faults) then
    (* draw-identical to the historical [Rng.pick rng (Array.of_list l)] *)
    match all with
    | [] -> Not_found
    | l -> Delivered ((List.nth l (R.int rng (List.length l))).pkg, 0.)
  else begin
    let tel f =
      match telemetry with
      | Some s -> f s
      | None -> ()
    in
    let c = t.shards.(home) in
    let delay = ref 0. in
    let failed = ref 0 and timed_out = ref 0 and saw_package = ref false in
    let try_once ~region ~cross =
      c.attempts <- c.attempts + 1;
      tel (fun s ->
          Js_telemetry.incr s "dist.fetch_attempts";
          if cross then Js_telemetry.incr s "dist.cross_region");
      if cross then c.cross_region_fetches <- c.cross_region_fetches + 1;
      if
        (* disaster windows first: a down target store or a partitioned
           fetcher fails the attempt before any randomness is consumed *)
        region_down t ~region ~now:(now +. !delay)
        || partitioned t ~region:home ~now:(now +. !delay)
      then begin
        c.failures <- c.failures + 1;
        incr failed;
        tel (fun s -> Js_telemetry.incr s "dist.fetch_failures");
        `Retry
      end
      else if t.cfg.fetch_fail_rate > 0. && R.bool rng t.cfg.fetch_fail_rate then begin
        c.failures <- c.failures + 1;
        incr failed;
        tel (fun s -> Js_telemetry.incr s "dist.fetch_failures");
        `Retry
      end
      else begin
        let lat =
          if t.cfg.fetch_latency_mean <= 0. then 0.
          else if t.cfg.tail_prob > 0. && R.bool rng t.cfg.tail_prob then
            R.pareto rng ~alpha:t.cfg.tail_alpha ~x_min:t.cfg.fetch_latency_mean
          else R.exponential rng ~mean:t.cfg.fetch_latency_mean
        in
        if t.cfg.fetch_timeout > 0. && lat > t.cfg.fetch_timeout then begin
          c.timeouts <- c.timeouts + 1;
          incr timed_out;
          delay := !delay +. t.cfg.fetch_timeout;
          tel (fun s -> Js_telemetry.incr s "dist.timeouts");
          `Retry
        end
        else begin
          let visible =
            (* time already spent waiting in this ladder counts: backing off
               while a push propagates lets late replicas become visible *)
            List.filter
              (fun r -> r.visible_from <= now +. !delay)
              (bucket_replicas t ~region ~bucket)
          in
          match visible with
          | [] ->
            c.empty_probes <- c.empty_probes + 1;
            `Empty
          | l ->
            saw_package := true;
            delay := !delay +. lat;
            let r = List.nth l (R.int rng (List.length l)) in
            if t.cfg.stale_rate > 0. && R.bool rng t.cfg.stale_rate then begin
              (* this replica still holds the previous release's package;
                 the consumer's fingerprint gate rejects it and the ladder
                 retries for a fresh copy *)
              c.stale_rejects <- c.stale_rejects + 1;
              tel (fun s -> Js_telemetry.incr s "dist.stale_rejects");
              `Retry
            end
            else begin
              c.deliveries <- c.deliveries + 1;
              tel (fun s ->
                  Js_telemetry.observe s ~lo:0. ~hi:120. ~buckets:24 "dist.fetch_seconds" lat);
              `Delivered r.pkg
            end
        end
      end
    in
    let rec home_attempts k =
      if k >= t.cfg.backoff.Backoff.max_attempts then `Exhausted
      else
        match try_once ~region:home ~cross:false with
        | `Delivered pkg -> `Delivered pkg
        | `Empty ->
          (* an empty replica set only fills up via publish latency; backing
             off and retrying is the right move while the push propagates *)
          if k + 1 < t.cfg.backoff.Backoff.max_attempts && t.cfg.publish_latency_mean > 0.
          then begin
            delay := !delay +. Backoff.delay t.cfg.backoff rng ~attempt:k;
            home_attempts (k + 1)
          end
          else `Exhausted
        | `Retry ->
          if k + 1 < t.cfg.backoff.Backoff.max_attempts then
            delay := !delay +. Backoff.delay t.cfg.backoff rng ~attempt:k;
          home_attempts (k + 1)
    in
    let rec foreign_regions = function
      | [] -> `Exhausted
      | r :: rest -> (
        match try_once ~region:r ~cross:true with
        | `Delivered pkg -> `Delivered pkg
        | `Empty | `Retry -> foreign_regions rest)
    in
    let verdict =
      match home_attempts 0 with
      | `Exhausted when t.cfg.cross_region ->
        foreign_regions (List.filter (fun r -> r <> home) (List.init t.cfg.regions Fun.id))
      | v -> v
    in
    match verdict with
    | `Delivered pkg -> Delivered (pkg, !delay)
    | `Exhausted ->
      if (not !saw_package) && !failed = 0 && !timed_out = 0 then Not_found
      else Unavailable !delay
  end
