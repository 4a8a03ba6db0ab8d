(* The two fetch ladders the delivery layer had before it ran one ladder for
   both payloads: the store ladder (Jumpstart.Dist_store.fetch over a Store)
   and the fleet ladder (Cluster.Dist_net.fetch over Server.package
   replicas), kept verbatim as the test-only oracle for
   [Jumpstart.Dist_store.ladder].  Only the Pareto latency tail is gone: no
   config ever enabled it.  The property in test_dist.ml drives both ladders
   and the one ladder side by side and compares verdicts, delays, RNG
   positions, counters and telemetry after every fetch. *)

module R = Js_util.Rng
module Backoff = Js_util.Backoff
module DS = Jumpstart.Dist_store
module Store = Jumpstart.Store
module Package = Jumpstart.Package

(* ------------------------------------------------------ store ladder -- *)

type store = {
  store : Store.t;
  net : DS.network;
  backoff : Backoff.config;
  ttl_seconds : float;
  regions : int array;
  cross_region : bool;
  expected_fingerprint : int option;
}

let create_store ~network ~backoff ~ttl_seconds ~cross_region ~regions ?repo store =
  {
    store;
    net = network;
    backoff;
    ttl_seconds;
    regions;
    cross_region;
    expected_fingerprint = Option.map Hhbc.Repo.fingerprint repo;
  }

let reject_counter = function
  | DS.Stale_replica -> "dist.stale_replica"
  | DS.Fingerprint_mismatch -> "dist.fingerprint_mismatch"
  | DS.Ttl_expired -> "dist.ttl_expired"

let gate t ~now ~forced_stale (meta : Package.meta) =
  if forced_stale then Error (DS.Stale_replica, "stale replica: package from a previous release")
  else
    match t.expected_fingerprint with
    | Some fp when meta.Package.repo_fingerprint <> fp ->
      Error
        ( DS.Fingerprint_mismatch,
          Printf.sprintf "repo fingerprint mismatch: package %x <> repo %x (stale release)"
            (meta.Package.repo_fingerprint land 0xffffff)
            (fp land 0xffffff) )
    | Some _ | None ->
      let age = now -. float_of_int meta.Package.published_at in
      if t.ttl_seconds > 0. && age > t.ttl_seconds then
        Error
          ( DS.Ttl_expired,
            Printf.sprintf "package expired: age %.0fs > ttl %.0fs" age t.ttl_seconds )
      else Ok ()

let store_fetch ?telemetry t rng ~now ~region:home ~bucket =
  let tel f =
    match telemetry with
    | Some s -> f s
    | None -> ()
  in
  let delay = ref 0. in
  let failures = ref 0 and timeouts = ref 0 and saw_package = ref false in
  let try_once ~region ~cross =
    tel (fun s ->
        Js_telemetry.incr s "dist.fetch_attempts";
        if cross then Js_telemetry.incr s "dist.cross_region");
    if t.net.DS.fetch_fail_rate > 0. && R.bool rng t.net.DS.fetch_fail_rate then begin
      incr failures;
      tel (fun s -> Js_telemetry.incr s "dist.fetch_failures");
      `Retry
    end
    else begin
      let lat =
        if t.net.DS.latency_mean <= 0. then 0. else R.exponential rng ~mean:t.net.DS.latency_mean
      in
      if t.net.DS.fetch_timeout > 0. && lat > t.net.DS.fetch_timeout then begin
        incr timeouts;
        delay := !delay +. t.net.DS.fetch_timeout;
        tel (fun s -> Js_telemetry.incr s "dist.timeouts");
        `Retry
      end
      else
        match Store.pick_random ?telemetry t.store rng ~region ~bucket with
        | None -> `Empty
        | Some (bytes, meta) -> (
          saw_package := true;
          delay := !delay +. lat;
          let forced_stale = t.net.DS.stale_rate > 0. && R.bool rng t.net.DS.stale_rate in
          match gate t ~now ~forced_stale meta with
          | Ok () ->
            tel (fun s ->
                Js_telemetry.observe s ~lo:0. ~hi:120. ~buckets:24 "dist.fetch_seconds" lat);
            `Delivered (bytes, meta, region)
          | Error (kind, reason) ->
            tel (fun s ->
                Js_telemetry.incr s "dist.stale_rejects";
                Js_telemetry.incr s (reject_counter kind));
            `Stale (kind, reason, bytes, meta))
    end
  in
  let rec home_attempts k =
    if k >= t.backoff.Backoff.max_attempts then `Exhausted
    else
      match try_once ~region:home ~cross:false with
      | (`Delivered _ | `Stale _) as final -> final
      | `Empty -> `Exhausted
      | `Retry ->
        if k + 1 < t.backoff.Backoff.max_attempts then
          delay := !delay +. Backoff.delay t.backoff rng ~attempt:k;
        home_attempts (k + 1)
  in
  let rec foreign_regions = function
    | [] -> `Exhausted
    | r :: rest -> (
      match try_once ~region:r ~cross:true with
      | (`Delivered _ | `Stale _) as final -> final
      | `Empty | `Retry -> foreign_regions rest)
  in
  let verdict =
    match home_attempts 0 with
    | `Exhausted when t.cross_region ->
      foreign_regions (List.filter (fun r -> r <> home) (Array.to_list t.regions))
    | v -> v
  in
  tel (fun s ->
      if !delay > 0. then begin
        let clock = Js_telemetry.clock s in
        Js_telemetry.add_span s "dist.fetch_wait" ~start:(Js_telemetry.Clock.now clock)
          ~dur:!delay;
        Js_telemetry.Clock.advance clock !delay
      end);
  match verdict with
  | `Delivered (bytes, meta, region) -> DS.Delivered { bytes; meta; region; delay = !delay }
  | `Stale (kind, reason, bytes, meta) ->
    DS.Rejected { kind; reason; bytes; meta; delay = !delay }
  | `Exhausted ->
    if (not !saw_package) && !failures = 0 && !timeouts = 0 then DS.No_package
    else
      DS.Unavailable
        {
          reason =
            Printf.sprintf "network unavailable after %d failures and %d timeouts" !failures
              !timeouts;
          delay = !delay;
        }

(* ------------------------------------------------------ fleet ladder -- *)

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
  shards : DS.counters array;
  down_from : float array;
  part_from : float array;
  part_until : float array;
  mutable has_faults : bool;
}

let create_net cfg =
  {
    cfg;
    replicas = Hashtbl.create 16;
    shards = Array.init cfg.regions (fun _ -> DS.fresh_counters ());
    down_from = Array.make cfg.regions infinity;
    part_from = Array.make cfg.regions infinity;
    part_until = Array.make cfg.regions infinity;
    has_faults = false;
  }

let net_counters t =
  let acc = DS.fresh_counters () in
  Array.iter
    (fun (c : DS.counters) ->
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
    | [] -> Cluster.Dist_net.Not_found
    | l -> Cluster.Dist_net.Delivered ((List.nth l (R.int rng (List.length l))).pkg, 0.)
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
    | `Delivered pkg -> Cluster.Dist_net.Delivered (pkg, !delay)
    | `Exhausted ->
      if (not !saw_package) && !failed = 0 && !timed_out = 0 then Cluster.Dist_net.Not_found
      else Cluster.Dist_net.Unavailable !delay
  end
