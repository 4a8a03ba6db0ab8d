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

let network_active n =
  n.fetch_fail_rate > 0. || n.fetch_timeout > 0. || n.latency_mean > 0. || n.stale_rate > 0.

(* The fault record comes from outside input (CLI flags, bench configs).
   NaN fails every ordered comparison, so each check is written to be false
   for it. *)
let validate net (b : Backoff.config) =
  let check ok what = if not ok then invalid_arg ("Dist_store: " ^ what) in
  let rate (name, p) = check (p >= 0. && p <= 1.) (name ^ " must be in [0, 1]") in
  let time (name, x) = check (Float.is_finite x && x >= 0.) (name ^ " must be finite and >= 0") in
  List.iter rate [ ("fetch_fail_rate", net.fetch_fail_rate); ("stale_rate", net.stale_rate) ];
  List.iter time
    [ ("fetch_timeout", net.fetch_timeout); ("latency_mean", net.latency_mean);
      ("backoff.base_delay", b.base_delay); ("backoff.multiplier", b.multiplier);
      ("backoff.max_delay", b.max_delay); ("backoff.jitter", b.jitter) ];
  check (b.max_attempts >= 1) "backoff.max_attempts must be >= 1"

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

type 'r verdict = [ `Accept | `Retry | `Reject of 'r ]

type ('p, 'r) delivery =
  | Accepted of 'p * int
  | Refused of 'p * 'r
  | Gave_up of { failures : int; timeouts : int }
  | Absent

let ladder ?telemetry net backoff c rng ~now ~home ~foreign ~reachable ~pick ~gate =
  let tel f =
    match telemetry with
    | Some s -> f s
    | None -> ()
  in
  let stale_reject () =
    (* aggregate kept for dashboards/invariants; a caller that can tell
       reject kinds apart adds its own split counter *)
    tel (fun s -> Js_telemetry.incr s "dist.stale_rejects")
  in
  (* The neutrality rule: when nothing can fail, delay or redirect a fetch, it
     is one selection draw plus the gate.  No counters, no attempt count and
     no latency sample, so every seeded run without faults stays
     byte-identical to a direct pick. *)
  if not (network_active net || foreign <> [] || Option.is_some reachable) then
    match pick ~region:home with
    | None -> (Absent, 0.)
    | Some p -> (
      match gate ~stale:false p with
      | `Accept -> (Accepted (p, home), 0.)
      | `Reject r ->
        stale_reject ();
        (Refused (p, r), 0.)
      | `Retry ->
        (* a one-shot fetch has no attempt left to retry with *)
        stale_reject ();
        (Gave_up { failures = 0; timeouts = 0 }, 0.))
  else begin
    let delay = ref 0. in
    let failures = ref 0 and timeouts = ref 0 and saw_payload = ref false in
    let fail () =
      c.failures <- c.failures + 1;
      incr failures;
      tel (fun s -> Js_telemetry.incr s "dist.fetch_failures");
      `Retry
    in
    (* One attempt against one region.  Randomness is consumed strictly in
       this order, each draw guarded by its rate: reachability (no draw),
       failure, latency, the caller's pick, staleness. *)
    let attempt ~region ~cross =
      c.attempts <- c.attempts + 1;
      tel (fun s ->
          Js_telemetry.incr s "dist.fetch_attempts";
          if cross then Js_telemetry.incr s "dist.cross_region");
      if cross then c.cross_region_fetches <- c.cross_region_fetches + 1;
      (* time already spent waiting in this ladder counts: a disaster window
         may open or close *)
      let at = now +. !delay in
      let unreachable =
        match reachable with
        | Some ok -> not (ok ~region ~at)
        | None -> false
      in
      if unreachable then fail ()
      else if net.fetch_fail_rate > 0. && R.bool rng net.fetch_fail_rate then fail ()
      else begin
        let lat = if net.latency_mean <= 0. then 0. else R.exponential rng ~mean:net.latency_mean in
        if net.fetch_timeout > 0. && lat > net.fetch_timeout then begin
          c.timeouts <- c.timeouts + 1;
          incr timeouts;
          delay := !delay +. net.fetch_timeout;
          tel (fun s -> Js_telemetry.incr s "dist.timeouts");
          `Retry
        end
        else
          match pick ~region with
          | None ->
            c.empty_probes <- c.empty_probes + 1;
            `Empty
          | Some p -> (
            saw_payload := true;
            delay := !delay +. lat;
            let stale = net.stale_rate > 0. && R.bool rng net.stale_rate in
            match gate ~stale p with
            | `Accept ->
              c.deliveries <- c.deliveries + 1;
              tel (fun s ->
                  Js_telemetry.observe s ~lo:0. ~hi:120. ~buckets:24 "dist.fetch_seconds" lat);
              `Final (Accepted (p, region))
            | `Retry ->
              c.stale_rejects <- c.stale_rejects + 1;
              stale_reject ();
              `Retry
            | `Reject r ->
              c.stale_rejects <- c.stale_rejects + 1;
              stale_reject ();
              `Final (Refused (p, r)))
      end
    in
    (* Bounded retries with backoff against the home region, then one
       attempt per foreign region, then give up. *)
    let rec home_attempts k =
      if k >= backoff.Backoff.max_attempts then None
      else
        match attempt ~region:home ~cross:false with
        | `Final d -> Some d
        | `Empty -> None (* a replica set cannot fill up while a fetch waits *)
        | `Retry ->
          if k + 1 < backoff.Backoff.max_attempts then
            delay := !delay +. Backoff.delay backoff rng ~attempt:k;
          home_attempts (k + 1)
    in
    let rec foreign_regions = function
      | [] -> None
      | r :: rest -> (
        match attempt ~region:r ~cross:true with
        | `Final d -> Some d
        | `Empty | `Retry -> foreign_regions rest)
    in
    let verdict =
      match home_attempts 0 with
      | Some d -> d
      | None -> (
        match foreign_regions foreign with
        | Some d -> d
        | None ->
          if (not !saw_payload) && !failures = 0 && !timeouts = 0 then Absent
          else Gave_up { failures = !failures; timeouts = !timeouts })
    in
    (verdict, !delay)
  end

type t = {
  store : Store.t;
  net : network;
  backoff : Backoff.config;
  ttl_seconds : float;
  regions : int array;
  expected_fingerprint : int option;
  counters : counters;
}

let create ?(network = default_network) ?(backoff = Backoff.default) ?(ttl_seconds = 0.)
    ?(regions = [||]) ?repo store =
  validate network backoff;
  {
    store;
    net = network;
    backoff;
    ttl_seconds;
    regions;
    (* O(bytecode), so hash the build once here rather than per fetch *)
    expected_fingerprint = Option.map Hhbc.Repo.fingerprint repo;
    counters = fresh_counters ();
  }

let active t = network_active t.net || t.regions <> [||]
let counters t = t.counters

type reject_kind = Stale_replica | Fingerprint_mismatch | Ttl_expired

(* Per-kind reject counters: the salvage path treats a fingerprint mismatch
   as recoverable (match the embedded shape against the live repo) while a
   forced-stale replica or TTL expiry stays terminal, so lumping them into
   one counter would hide exactly the split that matters. *)
let reject_counter = function
  | Stale_replica -> "dist.stale_replica"
  | Fingerprint_mismatch -> "dist.fingerprint_mismatch"
  | Ttl_expired -> "dist.ttl_expired"

type fetch_result =
  | Delivered of { bytes : string; meta : Package.meta; region : int; delay : float }
  | Rejected of {
      kind : reject_kind;
      reason : string;
      bytes : string;
      meta : Package.meta;
      delay : float;
    }
  | Unavailable of { reason : string; delay : float }
  | No_package

(* The staleness gate (§VII profile reuse): a delivered package is unusable —
   as opposed to unreachable — when it was built against a different repo or
   has outlived its TTL.  Gate verdicts are deterministic; [stale] models a
   replica that still serves the previous release's package. *)
let gate t ~now ~stale (meta : Package.meta) =
  if stale then `Reject (Stale_replica, "stale replica: package from a previous release")
  else
    match t.expected_fingerprint with
    | Some fp when meta.Package.repo_fingerprint <> fp ->
      `Reject
        ( Fingerprint_mismatch,
          Printf.sprintf "repo fingerprint mismatch: package %x <> repo %x (stale release)"
            (meta.Package.repo_fingerprint land 0xffffff)
            (fp land 0xffffff) )
    | Some _ | None ->
      let age = now -. float_of_int meta.Package.published_at in
      if t.ttl_seconds > 0. && age > t.ttl_seconds then
        `Reject
          (Ttl_expired, Printf.sprintf "package expired: age %.0fs > ttl %.0fs" age t.ttl_seconds)
      else `Accept

let fetch ?telemetry t rng ~now ~region:home ~bucket =
  let delivery, delay =
    ladder ?telemetry t.net t.backoff t.counters rng ~now ~home
      ~foreign:(List.filter (fun r -> r <> home) (Array.to_list t.regions))
      ~reachable:None
      ~pick:(fun ~region -> Store.pick_random ?telemetry t.store rng ~region ~bucket)
      ~gate:(fun ~stale (_, meta) -> gate t ~now ~stale meta)
  in
  Option.iter
    (fun s ->
      (match delivery with
      | Refused (_, (kind, _)) -> Js_telemetry.incr s (reject_counter kind)
      | Accepted _ | Gave_up _ | Absent -> ());
      if delay > 0. then begin
        let clock = Js_telemetry.clock s in
        Js_telemetry.add_span s "dist.fetch_wait" ~start:(Js_telemetry.Clock.now clock)
          ~dur:delay;
        Js_telemetry.Clock.advance clock delay
      end)
    telemetry;
  match delivery with
  | Accepted ((bytes, meta), region) -> Delivered { bytes; meta; region; delay }
  | Refused ((bytes, meta), (kind, reason)) -> Rejected { kind; reason; bytes; meta; delay }
  | Gave_up { failures; timeouts } ->
    Unavailable
      {
        reason =
          Printf.sprintf "network unavailable after %d failures and %d timeouts" failures timeouts;
        delay;
      }
  | Absent -> No_package
