(* The fleet's fetch ladder as it stood before package delivery ran one
   ladder (Cluster.Dist_net.fetch over Server.package replicas), kept
   verbatim as the test-only oracle for [Cluster.Dist_net.fetch].  Only the
   Pareto latency tail is gone: no config ever enabled it.  The property in
   test_dist.ml drives both ladders side by side and compares verdicts,
   delays, RNG positions, counters and telemetry after every fetch. *)

module R = Js_util.Rng
module Backoff = Js_util.Backoff
module DN = Cluster.Dist_net

type net_config = {
  regions : int;
  fetch_fail_rate : float;
  fetch_timeout : float;
  fetch_latency_mean : float;
  stale_rate : float;
  cross_region : bool;
  backoff : Backoff.config;
  publish_latency_mean : float;
}

let active c =
  c.fetch_fail_rate > 0. || c.fetch_timeout > 0. || c.fetch_latency_mean > 0.
  || c.stale_rate > 0. || c.publish_latency_mean > 0. || c.cross_region || c.regions > 1

type replica = { pkg : Cluster.Server.package; visible_from : float }

type net = {
  cfg : net_config;
  replicas : (int * int, replica list ref) Hashtbl.t;
  shards : DN.counters array;
  down_from : float array;
  part_from : float array;
  part_until : float array;
  mutable has_faults : bool;
}

let create_net cfg =
  {
    cfg;
    replicas = Hashtbl.create 16;
    shards = Array.init cfg.regions (fun _ -> DN.fresh_counters ());
    down_from = Array.make cfg.regions infinity;
    part_from = Array.make cfg.regions infinity;
    part_until = Array.make cfg.regions infinity;
    has_faults = false;
  }

let net_counters t =
  let acc = DN.fresh_counters () in
  Array.iter
    (fun (c : DN.counters) ->
      acc.attempts <- acc.attempts + c.attempts;
      acc.failures <- acc.failures + c.failures;
      acc.timeouts <- acc.timeouts + c.timeouts;
      acc.stale_rejects <- acc.stale_rejects + c.stale_rejects;
      acc.cross_region_fetches <- acc.cross_region_fetches + c.cross_region_fetches;
      acc.deliveries <- acc.deliveries + c.deliveries;
      acc.empty_probes <- acc.empty_probes + c.empty_probes)
    t.shards;
  acc

let set_region_down t ~region ~from_ =
  t.down_from.(region) <- from_;
  t.has_faults <- true

let set_region_partition t ~region ~from_ ~until =
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

let publish t rng ~now ~bucket pkg =
  for region = 0 to t.cfg.regions - 1 do
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

let net_fetch ?telemetry t rng ~now ~region:home ~bucket =
  let all = bucket_replicas t ~region:home ~bucket in
  if not (active t.cfg || t.has_faults) then
    match all with
    | [] -> DN.Not_found
    | l -> DN.Delivered ((List.nth l (R.int rng (List.length l))).pkg, 0.)
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
    | `Delivered pkg -> DN.Delivered (pkg, !delay)
    | `Exhausted ->
      if (not !saw_package) && !failed = 0 && !timed_out = 0 then DN.Not_found
      else DN.Unavailable !delay
  end
