module R = Js_util.Rng
module Stats = Js_util.Stats
module Server = Cluster.Server
module Fleet = Cluster.Fleet
module Dist_net = Cluster.Dist_net

type config = {
  fleet : Fleet.config;
  warm_rps : float;
  concurrency : int;
  queue_capacity : int;
  request_timeout : float;
  arrival : Arrival.config;
  policy : Balancer.policy;
  jumpstart : bool;
  push_at : float;
  drain_cap : int;
  abort_window : float;
  abort_threshold : int;
  bad_package_rate : float;
  thin_profile_rate : float;
  bad_per_bucket : int option;
  duration : float;
  curve_horizon : float;
  tick : float;
  record_latency : bool;
}

let default_config =
  {
    fleet = { Fleet.default_config with Fleet.n_servers = 24; n_buckets = 4 };
    warm_rps = 50.;
    concurrency = 8;
    queue_capacity = 64;
    request_timeout = 10.;
    arrival = { Arrival.default_config with Arrival.base_rps = 24. *. 50. *. 0.7 };
    policy = Balancer.Warmup_weighted;
    jumpstart = true;
    push_at = 120.;
    drain_cap = 4;
    abort_window = 60.;
    abort_threshold = 8;
    bad_package_rate = 0.;
    thin_profile_rate = 0.;
    bad_per_bucket = None;
    duration = 900.;
    curve_horizon = 1800.;
    tick = 1.;
    record_latency = false;
  }

type disaster =
  | Region_loss of { region : int; at : float }
  | Dist_partition of { region : int; at : float; duration : float }
  | Seeder_outage of { at : float }

type global_config = {
  base : config;
  n_regions : int;
  region_phase : float;
  push_stagger : float;
  spillover : bool;
  spill_latency : float;
  spill_threshold : float;
  epoch : float;
  disasters : disaster list;
  batch : bool;
}

let default_global_config =
  {
    base = default_config;
    n_regions = 1;
    region_phase = 0.;
    push_stagger = 0.;
    spillover = false;
    spill_latency = 60.;
    spill_threshold = 0.5;
    epoch = 30.;
    disasters = [];
    batch = true;
  }

type stats = {
  region : int;
  policy : Balancer.policy;
  jumpstart : bool;
  arrived : int;
  completed : int;
  shed_queue_full : int;
  shed_timeout : int;
  shed_no_server : int;
  shed_drain : int;
  crashes : int;
  jump_started : int;
  fallbacks : int;
  spilled_out : int;
  spilled_in : int;
  bucket_jump_started : int array;
  bucket_fallbacks : int array;
  packages_published : int;
  packages_rejected : int;
  bad_packages_published : int;
  aborted : bool;
  lost : bool;
  push_started : float;
  push_done : float;
  time_to_full_capacity : float;
  capacity_loss_integral : float;
  fleet_warm_rps : float;
  latency : Stats.Quantile.t;
  latency_push : Stats.Quantile.t;
  capacity_series : Stats.Series.t;
  served_series : Stats.Series.t;
  server_latency : Stats.Series.t array;
  events_dispatched : int;
  dist : Dist_net.counters option;
}

type global_stats = {
  g_mode : string;  (** "epoch" or "merged"; excluded from {!global_digest} *)
  g_regions : stats array;
  g_latency : Stats.Quantile.t;
  g_latency_push : Stats.Quantile.t;
  g_epochs : int;
  g_domains : int;
  g_events : int;
  g_spilled : int;
  g_net : Dist_net.counters;
}

(* Flat event payloads: one constructor per event kind, each carrying its
   region so merged-mode dispatch needs no wrapper.  [Ev_none] pads empty
   queue slots and is never dispatched. *)
type ev =
  | Ev_none
  | Ev_arrival of int
  | Ev_spill of { r : int; arrived : float }
  | Ev_complete of { r : int; six : int; gen : int; arrived : float }
  | Ev_boot of { r : int; six : int; gen : int; push : bool }
  | Ev_crash of { r : int; six : int; gen : int }
  | Ev_tick of int
  | Ev_push of int
  | Ev_loss of int

type srv = {
  six : int;  (* index within its region *)
  bucket : int;
  mutable accepting : bool;
  mutable gen : int;  (* bumped on every restart; stale events check it *)
  mutable served : int;
  (* Waiting requests' arrival times: a float ring, oldest at [whead], that
     grows by doubling on demand up to [queue_capacity], so a large fleet
     pays only for the queues that ever fill. *)
  mutable wbuf : float array;
  mutable whead : int;
  mutable wlen : int;
  mutable curve : Warmup_curve.t;
  mutable scale : float;  (* macro requests represented by one DES request *)
  mutable attempts : int;
}

type region = {
  rix : int;
  eng : ev Engine.t;  (* physically shared by all regions in merged mode *)
  rng_route : R.t;
  rng_service : R.t;
  rng_net : R.t;
  arrival : Arrival.t;
  servers : srv array;
  lb : Balancer.t;
  (* Dense accepting set: O(1) add/remove (swap-remove), so routing never
     rebuilds a candidate array per arrival — the difference between O(1)
     and O(n_servers) per request at 100k servers. *)
  acc : int array;
  acc_pos : int array;  (* six -> position in [acc], or -1 *)
  mutable acc_len : int;
  outstanding : int array;  (* six -> in-flight requests *)
  (* The capacity cache, indexed by six: the warmup multiplier at the
     server's current [served], and [warm_rps] divided by it.  Their inputs
     ([served], [curve], [scale]) change only on completion and restart, so
     {!refresh_capacity} runs there and at run start, and service, routing
     and the capacity tick read the arrays instead of searching a curve. *)
  mult : float array;
  cap : float array;
  mutable up : bool;
  mutable spill_cursor : int;
  mutable r_arrived : int;
  mutable r_completed : int;
  mutable r_shed_queue_full : int;
  mutable r_shed_timeout : int;
  mutable r_shed_no_server : int;
  mutable r_shed_drain : int;
  mutable r_crashes : int;
  mutable crash_times : float list;
  mutable r_jump_started : int;
  mutable r_fallbacks : int;
  mutable r_spilled_out : int;
  mutable r_spilled_in : int;
  r_bucket_jump_started : int array;
  r_bucket_fallbacks : int array;
  mutable pending_restarts : int list;
  mutable restarts_in_flight : int;
  mutable r_push_started : float;
  mutable r_push_done : float;
  mutable ttfc : float;
  mutable r_aborted : bool;
  mutable loss : float;
  mutable completed_at_tick : int;
  mutable events : int;
  r_latency : Stats.Quantile.t;
  r_latency_push : Stats.Quantile.t;
  r_capacity_series : Stats.Series.t;
  r_served_series : Stats.Series.t;
  (* Per-server (completion time, latency) samples, length n_servers when
     [record_latency] is set and [| |] otherwise.  Recording draws no RNG and
     the field is excluded from {!digest}, so it is digest-neutral. *)
  r_server_latency : Stats.Series.t array;
  (* This region's telemetry sink.  In the merged run every region shares
     the caller's registry; in barrier runs each region owns a private shard
     (with its own clock — no cross-domain clock pushes) that is merged into
     the caller's registry after the run. *)
  r_tel : Js_telemetry.t option;
  (* Per-destination spill mailboxes of arrival times, used by barrier runs:
     a region never touches a foreign engine mid-epoch; it posts here and the
     barrier phase drains every (src, dst) pair in index order. *)
  outbox : float Js_util.Par.Mailbox.t array;
}

type g = {
  gcfg : global_config;
  cfg : config;
  app : Workload.Macro_app.t;
  net : Dist_net.t;  (* shared across regions *)
  curves : Warmup_curve.cache;  (* shared: same app, same packages *)
  base_service : float;  (* concurrency / warm_rps: warm mean service time *)
  demand_mu : float;
  demand_sigma : float;
  fleet_warm : float;  (* per region *)
  loss_at : float array;  (* Region_loss schedule; infinity = never *)
  regions : region array;
  mutable seeding : Fleet.seeding option;
}

let tel reg f = match reg.r_tel with Some t -> f t | None -> ()

(* A probability from outside input; the check is false for NaN. *)
let check_rate name p =
  if not (p >= 0. && p <= 1.) then invalid_arg ("Region: " ^ name ^ " must be in [0, 1]")

let validate cfg =
  (* servers index their bucket's counters and replica lists *)
  if cfg.fleet.Fleet.n_buckets < 1 then invalid_arg "Region: fleet.n_buckets must be >= 1";
  if cfg.warm_rps <= 0. then invalid_arg "Region: warm_rps must be positive";
  if cfg.concurrency <= 0 then invalid_arg "Region: concurrency must be positive";
  if cfg.queue_capacity < 0 then invalid_arg "Region: queue_capacity must be >= 0";
  (* these comparisons are false for NaN; an infinite timeout sheds nothing *)
  if not (cfg.request_timeout > 0.) then invalid_arg "Region: request_timeout must be positive";
  if not (cfg.abort_window >= 0.) then invalid_arg "Region: abort_window must be >= 0";
  check_rate "bad_package_rate" cfg.bad_package_rate;
  check_rate "thin_profile_rate" cfg.thin_profile_rate;
  check_rate "fleet.validation_catch_rate" cfg.fleet.Fleet.validation_catch_rate;
  if cfg.drain_cap <= 0 then invalid_arg "Region: drain_cap must be positive";
  (* NaN fails every comparison and infinity never reaches a barrier, so the
     three times are checked for finiteness before they are compared *)
  if not (Float.is_finite cfg.tick && cfg.tick > 0.) then
    invalid_arg "Region: tick must be positive and finite";
  if not (Float.is_finite cfg.push_at) then invalid_arg "Region: push_at must be finite";
  if not (Float.is_finite cfg.duration) then invalid_arg "Region: duration must be finite";
  if cfg.duration <= cfg.push_at then invalid_arg "Region: duration must exceed push_at"

let validate_global gc =
  validate gc.base;
  if gc.n_regions < 1 then invalid_arg "Region: n_regions must be >= 1";
  if gc.epoch <= 0. || Float.is_nan gc.epoch then
    invalid_arg "Region: epoch must be positive";
  if not (Float.is_finite gc.region_phase && gc.region_phase >= 0.) then
    invalid_arg "Region: region_phase must be finite and >= 0";
  (* region r's push starts at push_at + r * push_stagger *)
  if not (Float.is_finite gc.push_stagger && gc.push_stagger >= 0.) then
    invalid_arg "Region: push_stagger must be finite and >= 0";
  if not (gc.spill_threshold > 0. && gc.spill_threshold <= 1.) then
    invalid_arg "Region: spill_threshold must be in (0, 1]";
  if gc.spillover && gc.n_regions > 1 then begin
    (* an infinite latency loses every spill; a NaN one stops the engine *)
    if not (Float.is_finite gc.spill_latency) then
      invalid_arg "Region: spill_latency must be finite";
    if gc.spill_latency < gc.epoch then
      (* cross-region lookahead: a spill sent in epoch k must land at or after
         the next barrier, or epoch-mode and merged-mode runs could diverge *)
      invalid_arg "Region: spill_latency must be >= epoch"
  end;
  List.iter
    (fun d ->
      let check_region r =
        if r < 0 || r >= gc.n_regions then invalid_arg "Region: disaster region"
      in
      match d with
      | Region_loss { region; at } ->
        check_region region;
        if at < 0. || Float.is_nan at then invalid_arg "Region: disaster time"
      | Dist_partition { region; at; duration } ->
        check_region region;
        if at < 0. || duration < 0. || Float.is_nan (at +. duration) then
          invalid_arg "Region: disaster time"
      | Seeder_outage { at } ->
        if at < 0. || Float.is_nan at then invalid_arg "Region: disaster time")
    gc.disasters

(* Per-request service demand: lognormal with unit mean, matched to the
   coefficient of variation of the workload's per-request instruction
   count. *)
let demand_params app =
  let mean, std = Workload.Macro_app.request_weight_moments app in
  let cv = if mean > 0. then std /. mean else 0. in
  let sigma2 = log (1. +. (cv *. cv)) in
  (-0.5 *. sigma2, sqrt sigma2)

let sample_demand g reg =
  if g.demand_sigma = 0. then 1.
  else exp (R.gaussian reg.rng_service ~mu:g.demand_mu ~sigma:g.demand_sigma)

let macro_served srv = float_of_int srv.served *. srv.scale

let refresh_capacity g reg srv =
  let m = Warmup_curve.multiplier srv.curve ~served:(macro_served srv) in
  reg.mult.(srv.six) <- m;
  reg.cap.(srv.six) <- g.cfg.warm_rps /. m

let in_push_window reg = reg.r_push_started >= 0. && reg.ttfc < 0.

(* A region is "up" as a pure function of time (its Region_loss schedule),
   never of run order — spillover target choice must not read remote mutable
   state or epoch/merged runs could diverge. *)
let region_up_at g q ~at = at < g.loss_at.(q)

let acc_add reg srv =
  if reg.acc_pos.(srv.six) < 0 then begin
    reg.acc.(reg.acc_len) <- srv.six;
    reg.acc_pos.(srv.six) <- reg.acc_len;
    reg.acc_len <- reg.acc_len + 1
  end

let acc_remove reg srv =
  let p = reg.acc_pos.(srv.six) in
  if p >= 0 then begin
    let last = reg.acc_len - 1 in
    let moved = reg.acc.(last) in
    reg.acc.(p) <- moved;
    reg.acc_pos.(moved) <- p;
    reg.acc.(last) <- -1;
    reg.acc_pos.(srv.six) <- -1;
    reg.acc_len <- last
  end

let set_accepting reg srv v =
  srv.accepting <- v;
  if v then acc_add reg srv else acc_remove reg srv

let srv_source g reg srv =
  Printf.sprintf "sim.server.%d" ((reg.rix * g.cfg.fleet.Fleet.n_servers) + srv.six)

let wait_push g srv arrived =
  let size = Array.length srv.wbuf in
  if srv.wlen = size then begin
    let buf = Array.make (min g.cfg.queue_capacity (max 4 (2 * size))) 0. in
    for k = 0 to srv.wlen - 1 do
      buf.(k) <- srv.wbuf.((srv.whead + k) mod size)
    done;
    srv.wbuf <- buf;
    srv.whead <- 0
  end;
  srv.wbuf.((srv.whead + srv.wlen) mod Array.length srv.wbuf) <- arrived;
  srv.wlen <- srv.wlen + 1

let[@inline] wait_pop srv =
  let arrived = srv.wbuf.(srv.whead) in
  srv.whead <- (if srv.whead + 1 = Array.length srv.wbuf then 0 else srv.whead + 1);
  srv.wlen <- srv.wlen - 1;
  arrived

let wait_clear srv =
  srv.whead <- 0;
  srv.wlen <- 0

let start_service g reg srv ~arrived =
  let demand = sample_demand g reg in
  let service = g.base_service *. demand *. reg.mult.(srv.six) in
  reg.outstanding.(srv.six) <- reg.outstanding.(srv.six) + 1;
  Engine.after reg.eng ~delay:service
    (Ev_complete { r = reg.rix; six = srv.six; gen = srv.gen; arrived })

let complete g reg srv ~arrived =
  let now = Engine.now reg.eng in
  reg.outstanding.(srv.six) <- reg.outstanding.(srv.six) - 1;
  srv.served <- srv.served + 1;
  refresh_capacity g reg srv;
  reg.r_completed <- reg.r_completed + 1;
  let l = now -. arrived in
  Stats.Quantile.add reg.r_latency l;
  if in_push_window reg then Stats.Quantile.add reg.r_latency_push l;
  if reg.r_server_latency <> [||] then
    Stats.Series.add reg.r_server_latency.(srv.six) ~time:now ~value:l;
  (* lazy timeout shedding: expired waiters are dropped at dequeue time *)
  let continue = ref true in
  while !continue && reg.outstanding.(srv.six) < g.cfg.concurrency && srv.wlen > 0 do
    let arrived = wait_pop srv in
    if arrived +. g.cfg.request_timeout < now then begin
      reg.r_shed_timeout <- reg.r_shed_timeout + 1;
      tel reg (fun t -> Js_telemetry.incr t "sim.shed_timeout")
    end
    else begin
      start_service g reg srv ~arrived;
      continue := false
    end
  done

let offer g reg srv ~arrived =
  if reg.outstanding.(srv.six) < g.cfg.concurrency then start_service g reg srv ~arrived
  else if srv.wlen < g.cfg.queue_capacity then wait_push g srv arrived
  else begin
    reg.r_shed_queue_full <- reg.r_shed_queue_full + 1;
    tel reg (fun t -> Js_telemetry.incr t "sim.shed_queue_full")
  end

(* Boot-role selection, the §VI-A ladder: fetch through the distribution
   network while attempts remain, fall back to a no-Jump-Start boot after
   [max_boot_attempts] (or on fetch failure).  Fetches go to this region's
   replica store. *)
let choose_role g reg srv ~now =
  let fc = g.cfg.fleet in
  if not g.cfg.jumpstart then (Server.No_jumpstart, 0., false)
  else if (not fc.Fleet.fallback_enabled) || srv.attempts < fc.Fleet.max_boot_attempts
  then begin
    match
      Dist_net.fetch ?telemetry:reg.r_tel g.net reg.rng_net ~now ~region:reg.rix
        ~bucket:srv.bucket
    with
    | Dist_net.Delivered (pkg, d) -> (Server.Consumer pkg, d, false)
    | Dist_net.Unavailable d -> (Server.No_jumpstart, d, true)
    | Dist_net.Not_found -> (Server.No_jumpstart, 0., false)
  end
  else (Server.No_jumpstart, 0., false)

let restart g reg srv ~push =
  let now = Engine.now reg.eng in
  srv.gen <- srv.gen + 1;
  set_accepting reg srv false;
  (* immediate drain: queued and in-flight requests on this server are
     lost (their completion events are invalidated by the gen bump) *)
  let dropped = srv.wlen + reg.outstanding.(srv.six) in
  if dropped > 0 then begin
    reg.r_shed_drain <- reg.r_shed_drain + dropped;
    tel reg (fun t -> Js_telemetry.incr t ~by:dropped "sim.shed_drain")
  end;
  wait_clear srv;
  reg.outstanding.(srv.six) <- 0;
  let role, fetch_delay, fetch_failed = choose_role g reg srv ~now in
  let source = srv_source g reg srv in
  (match role with
  | Server.No_jumpstart when g.cfg.jumpstart ->
    let no_packages =
      match g.seeding with
      | Some s -> s.Fleet.per_bucket.(srv.bucket) = []
      | None -> true
    in
    if srv.attempts > 0 || no_packages || fetch_failed then begin
      reg.r_fallbacks <- reg.r_fallbacks + 1;
      reg.r_bucket_fallbacks.(srv.bucket) <- reg.r_bucket_fallbacks.(srv.bucket) + 1;
      tel reg (fun t ->
          let reason =
            if no_packages then "no profile package available"
            else if fetch_failed then
              "package fetch failed: distribution network unavailable"
            else Printf.sprintf "exhausted %d boot attempts (bad package)" srv.attempts
          in
          Js_telemetry.incr t "sim.fallbacks";
          Js_telemetry.record t (Js_telemetry.Fallback { source; reason }))
    end
  | Server.No_jumpstart -> ()
  | Server.Consumer _ ->
    if srv.attempts = 0 then begin
      reg.r_jump_started <- reg.r_jump_started + 1;
      reg.r_bucket_jump_started.(srv.bucket) <-
        reg.r_bucket_jump_started.(srv.bucket) + 1;
      tel reg (fun t -> Js_telemetry.incr t "sim.jump_started")
    end);
  srv.curve <- Warmup_curve.get g.curves role;
  srv.scale <- Float.max 1e-9 (Warmup_curve.peak_rps srv.curve) /. g.cfg.warm_rps;
  srv.served <- 0;
  refresh_capacity g reg srv;
  let boot = Warmup_curve.boot_seconds srv.curve +. fetch_delay in
  tel reg (fun t -> Js_telemetry.add_span t (source ^ ".boot") ~start:now ~dur:boot);
  Engine.after reg.eng ~delay:boot
    (Ev_boot { r = reg.rix; six = srv.six; gen = srv.gen; push });
  (* a bad package crashes shortly after the server starts serving *)
  match role with
  | Server.Consumer pkg when pkg.Server.bad ->
    let crash_delay = boot +. g.cfg.fleet.Fleet.server.Server.crash_delay_seconds in
    Engine.after reg.eng ~delay:crash_delay
      (Ev_crash { r = reg.rix; six = srv.six; gen = srv.gen })
  | Server.Consumer _ | Server.No_jumpstart -> ()

let launch_restarts g reg =
  let continue = ref true in
  while !continue do
    match reg.pending_restarts with
    | six :: rest when reg.restarts_in_flight < g.cfg.drain_cap ->
      reg.pending_restarts <- rest;
      reg.restarts_in_flight <- reg.restarts_in_flight + 1;
      restart g reg reg.servers.(six) ~push:true
    | _ -> continue := false
  done;
  if reg.pending_restarts = [] && reg.restarts_in_flight = 0 && reg.r_push_done < 0.
  then reg.r_push_done <- Engine.now reg.eng

let crash g reg srv =
  let now = Engine.now reg.eng in
  reg.r_crashes <- reg.r_crashes + 1;
  reg.crash_times <-
    now :: List.filter (fun t -> t >= now -. g.cfg.abort_window) reg.crash_times;
  tel reg (fun t ->
      Js_telemetry.incr t "sim.crashes";
      Js_telemetry.record t
        (Js_telemetry.Server_crashed
           { server = (reg.rix * g.cfg.fleet.Fleet.n_servers) + srv.six;
             kind = "bad_package";
           }));
  (* §VI-A guardrail: a crash spike during the rolling push aborts the
     remaining restarts in this region (the fleet keeps running the previous
     release) *)
  if
    (not reg.r_aborted)
    && reg.pending_restarts <> []
    && List.length reg.crash_times >= g.cfg.abort_threshold
  then begin
    reg.r_aborted <- true;
    reg.pending_restarts <- [];
    tel reg (fun t ->
        Js_telemetry.record t
          (Js_telemetry.Mark { name = "sim.push_aborted"; detail = "crash spike" }))
  end;
  srv.attempts <- srv.attempts + 1;
  restart g reg srv ~push:false

let start_push g reg =
  if reg.up then begin
    let now = Engine.now reg.eng in
    reg.r_push_started <- now;
    tel reg (fun t ->
        Js_telemetry.record t
          (Js_telemetry.Mark { name = "sim.push_started"; detail = "rolling restart" }));
    (* Region 0 is the seeder region: the global push train starts there, so
       by the time any later region pushes (stagger >= 0) the packages are
       already published.  In merged mode region 0's push event was inserted
       first; in epoch mode region 0 runs first within the epoch — either
       way seeding happens-before every logically-later fetch. *)
    if g.cfg.jumpstart && reg.rix = 0 then begin
      let seeding =
        match g.cfg.bad_per_bucket with
        | Some bad_per_bucket -> Fleet.forced_seeding g.cfg.fleet g.app ~bad_per_bucket
        | None ->
          Fleet.run_seeders g.cfg.fleet g.app reg.rng_net
            ~bad_package_rate:g.cfg.bad_package_rate
            ~thin_profile_rate:g.cfg.thin_profile_rate
      in
      g.seeding <- Some seeding;
      for bucket = 0 to g.cfg.fleet.Fleet.n_buckets - 1 do
        List.iter
          (fun pkg -> Dist_net.publish g.net ~now ~bucket pkg)
          seeding.Fleet.per_bucket.(bucket)
      done
    end;
    reg.pending_restarts <- List.init g.cfg.fleet.Fleet.n_servers Fun.id;
    launch_restarts g reg
  end

let schedule_arrival g reg ~after =
  let at = Arrival.next reg.arrival ~after in
  if at <= g.cfg.duration then Engine.schedule reg.eng ~at (Ev_arrival reg.rix)

let shed_no_server _g reg =
  reg.r_shed_no_server <- reg.r_shed_no_server + 1;
  tel reg (fun t -> Js_telemetry.incr t "sim.shed_no_server")

let route_local g reg ~arrived =
  let six =
    Balancer.pick reg.lb reg.rng_route ~n:reg.acc_len ~candidates:reg.acc
      ~outstanding:reg.outstanding ~weights:reg.cap
  in
  if six < 0 then shed_no_server g reg else offer g reg reg.servers.(six) ~arrived

let schedule_spill g q ~arrived =
  Engine.schedule g.regions.(q).eng
    ~at:(arrived +. g.gcfg.spill_latency)
    (Ev_spill { r = q; arrived })

(* Cross-region spillover: a region with no accepting servers (or degraded
   below [spill_threshold] of its fleet) forwards the marginal share of its
   arrivals to an up foreign region, arriving [spill_latency] later.  The
   decision reads only region-local and pure-function-of-time state. *)
let try_spill g reg ~now =
  if (not g.gcfg.spillover) || g.gcfg.n_regions <= 1 then false
  else
    match
      Balancer.pick_region ~home:reg.rix ~n_regions:g.gcfg.n_regions
        ~cursor:reg.spill_cursor
        ~up:(fun q -> region_up_at g q ~at:now)
    with
    | None -> false
    | Some (q, cursor) ->
      reg.spill_cursor <- cursor;
      reg.r_spilled_out <- reg.r_spilled_out + 1;
      tel reg (fun t -> Js_telemetry.incr t "sim.spill_out");
      (* A region never pushes into a foreign engine's queue mid-epoch: the
         spill goes into this region's mailbox for [q] and the barrier phase
         delivers it.  [spill_latency >= epoch] puts its arrival beyond the
         current barrier, so delivery there is never late.  Only the merged
         run, where every region shares one queue, schedules directly. *)
      if g.regions.(q).eng == reg.eng then schedule_spill g q ~arrived:now
      else Js_util.Par.Mailbox.post reg.outbox.(q) now;
      true

(* One arrival at the engine's current time, then schedule — or inline — the
   next one.  Batching fast path: when the next pre-drawn arrival is still
   inside the current run's horizon and strictly earlier than every queued
   event, pushing it through the heap is pure overhead — it would pop
   immediately.  [Engine.step_to] performs the same clock/dispatch
   bookkeeping the pop would have, and [reg.events] is bumped exactly as
   {!dispatch} would, so digests are byte-identical batched or not.  The
   strict [<] keeps FIFO tie semantics: an equal-time queued event still pops
   first, as it was inserted first. *)
let rec arrival_ev g reg =
  let now = Engine.now reg.eng in
  reg.r_arrived <- reg.r_arrived + 1;
  (if reg.acc_len = 0 then begin
     if not (try_spill g reg ~now) then shed_no_server g reg
   end
   else begin
     let frac =
       float_of_int reg.acc_len /. float_of_int g.cfg.fleet.Fleet.n_servers
     in
     if
       g.gcfg.spillover
       && g.gcfg.n_regions > 1
       && frac < g.gcfg.spill_threshold
       && R.float reg.rng_route 1. < 1. -. (frac /. g.gcfg.spill_threshold)
       && try_spill g reg ~now
     then ()
     else route_local g reg ~arrived:now
   end);
  let at = Arrival.next reg.arrival ~after:now in
  if at <= g.cfg.duration then begin
    if
      g.gcfg.batch
      && at <= Engine.horizon reg.eng
      && at < Engine.next_event_at reg.eng
    then begin
      Engine.step_to reg.eng ~at;
      reg.events <- reg.events + 1;
      arrival_ev g reg
    end
    else Engine.schedule reg.eng ~at (Ev_arrival reg.rix)
  end

let spill_ev g reg ~arrived =
  reg.r_spilled_in <- reg.r_spilled_in + 1;
  tel reg (fun t -> Js_telemetry.incr t "sim.spill_in");
  if reg.acc_len = 0 then shed_no_server g reg else route_local g reg ~arrived

let tick_ev g reg =
  let now = Engine.now reg.eng in
  let cap = ref 0. in
  let all_up = ref true in
  for six = 0 to Array.length reg.servers - 1 do
    if reg.servers.(six).accepting then cap := !cap +. reg.cap.(six) else all_up := false
  done;
  Stats.Series.add reg.r_capacity_series ~time:now ~value:!cap;
  let delta = reg.r_completed - reg.completed_at_tick in
  reg.completed_at_tick <- reg.r_completed;
  Stats.Series.add reg.r_served_series ~time:now
    ~value:(float_of_int delta /. g.cfg.tick);
  if reg.r_push_started >= 0. && now > reg.r_push_started then
    reg.loss <- reg.loss +. (g.cfg.tick *. Float.max 0. (g.fleet_warm -. !cap));
  if
    reg.r_push_started >= 0. && reg.ttfc < 0. && reg.r_push_done >= 0. && !all_up
    && !cap >= 0.95 *. g.fleet_warm
  then begin
    reg.ttfc <- now -. reg.r_push_started;
    tel reg (fun t -> Js_telemetry.set_gauge t "sim.time_to_full_capacity" reg.ttfc)
  end;
  if now +. g.cfg.tick <= g.cfg.duration then
    Engine.schedule reg.eng ~at:(now +. g.cfg.tick) (Ev_tick reg.rix)

(* Region loss: every server goes down at once.  Generation bumps invalidate
   all in-flight completion/boot/crash events (so a lost region records zero
   crashes), queued work counts as drained, and the remaining push batch is
   cancelled.  Offered load keeps arriving and spills cross-region. *)
let loss_ev _g reg =
  if reg.up then begin
    reg.up <- false;
    tel reg (fun t ->
        Js_telemetry.record t
          (Js_telemetry.Mark
             { name = "sim.region_lost"; detail = Printf.sprintf "region %d" reg.rix }));
    let dropped = ref 0 in
    Array.iter
      (fun srv ->
        srv.gen <- srv.gen + 1;
        dropped := !dropped + srv.wlen + reg.outstanding.(srv.six);
        wait_clear srv;
        reg.outstanding.(srv.six) <- 0;
        set_accepting reg srv false)
      reg.servers;
    if !dropped > 0 then begin
      reg.r_shed_drain <- reg.r_shed_drain + !dropped;
      tel reg (fun t -> Js_telemetry.incr t ~by:!dropped "sim.shed_drain")
    end;
    reg.pending_restarts <- [];
    reg.restarts_in_flight <- 0
  end

let dispatch g ev =
  match ev with
  | Ev_none -> ()
  | Ev_arrival r ->
    let reg = g.regions.(r) in
    reg.events <- reg.events + 1;
    arrival_ev g reg
  | Ev_spill { r; arrived } ->
    let reg = g.regions.(r) in
    reg.events <- reg.events + 1;
    spill_ev g reg ~arrived
  | Ev_complete { r; six; gen; arrived } ->
    let reg = g.regions.(r) in
    reg.events <- reg.events + 1;
    let srv = reg.servers.(six) in
    if gen = srv.gen then complete g reg srv ~arrived
  | Ev_boot { r; six; gen; push } ->
    let reg = g.regions.(r) in
    reg.events <- reg.events + 1;
    let srv = reg.servers.(six) in
    if gen = srv.gen then begin
      set_accepting reg srv true;
      if push then begin
        reg.restarts_in_flight <- reg.restarts_in_flight - 1;
        launch_restarts g reg
      end
    end
  | Ev_crash { r; six; gen } ->
    let reg = g.regions.(r) in
    reg.events <- reg.events + 1;
    let srv = reg.servers.(six) in
    if gen = srv.gen then crash g reg srv
  | Ev_tick r ->
    let reg = g.regions.(r) in
    reg.events <- reg.events + 1;
    tick_ev g reg
  | Ev_push r ->
    let reg = g.regions.(r) in
    reg.events <- reg.events + 1;
    start_push g reg
  | Ev_loss r ->
    let reg = g.regions.(r) in
    reg.events <- reg.events + 1;
    loss_ev g reg

let stats_of_region g reg : stats =
  let published, rejected, bad_published =
    if reg.rix = 0 then
      match g.seeding with
      | Some s -> (s.Fleet.published, s.Fleet.rejected, s.Fleet.bad_published)
      | None -> (0, 0, 0)
    else (0, 0, 0)
  in
  {
    region = reg.rix;
    policy = g.cfg.policy;
    jumpstart = g.cfg.jumpstart;
    arrived = reg.r_arrived;
    completed = reg.r_completed;
    shed_queue_full = reg.r_shed_queue_full;
    shed_timeout = reg.r_shed_timeout;
    shed_no_server = reg.r_shed_no_server;
    shed_drain = reg.r_shed_drain;
    crashes = reg.r_crashes;
    jump_started = reg.r_jump_started;
    fallbacks = reg.r_fallbacks;
    spilled_out = reg.r_spilled_out;
    spilled_in = reg.r_spilled_in;
    bucket_jump_started = reg.r_bucket_jump_started;
    bucket_fallbacks = reg.r_bucket_fallbacks;
    packages_published = published;
    packages_rejected = rejected;
    bad_packages_published = bad_published;
    aborted = reg.r_aborted;
    lost = not reg.up;
    push_started = reg.r_push_started;
    push_done = reg.r_push_done;
    time_to_full_capacity = reg.ttfc;
    capacity_loss_integral = reg.loss;
    fleet_warm_rps = g.fleet_warm;
    latency = reg.r_latency;
    latency_push = reg.r_latency_push;
    capacity_series = reg.r_capacity_series;
    served_series = reg.r_served_series;
    server_latency = reg.r_server_latency;
    events_dispatched = reg.events;
    dist =
      (if reg.rix = 0 && Dist_net.active (Dist_net.config g.net) then
         Some (Dist_net.counters g.net)
       else None);
  }

(* After the epoch that ran region 0's push, every package a consumer can
   ever fetch has been published; touching each one's curve here — on the
   calling domain, before any later epoch runs — makes the memo cache a
   cache-hit-only (hence read-only) structure for the rest of the run. *)
let prewarm_curves g =
  match g.seeding with
  | None -> ()
  | Some s ->
    Array.iter
      (fun pkgs ->
        List.iter
          (fun pkg -> ignore (Warmup_curve.get g.curves (Server.Consumer pkg)))
          pkgs)
      s.Fleet.per_bucket

let run_global ?telemetry ?(mode = `Epoch) gcfg app ~seed =
  validate_global gcfg;
  let cfg = gcfg.base in
  let n_regions = gcfg.n_regions in
  let fc = cfg.fleet in
  let n_servers = fc.Fleet.n_servers in
  (* A multi-region fleet needs a dist net that spans the regions, which
     turns on cross-region fallback (disaster scenarios depend on it); a
     single-region run keeps the configured net untouched, preserving the
     RNG-neutrality of inactive configs. *)
  let dist_cfg =
    if n_regions = 1 then fc.Fleet.dist
    else
      { fc.Fleet.dist with Dist_net.regions = max fc.Fleet.dist.Dist_net.regions n_regions }
  in
  let net = Dist_net.create dist_cfg in
  let loss_at = Array.make n_regions infinity in
  List.iter
    (function
      | Region_loss { region; at } -> loss_at.(region) <- Float.min loss_at.(region) at
      | Dist_partition { region; at; duration } ->
        Dist_net.set_region_partition net ~region ~from_:at ~until:(at +. duration)
      | Seeder_outage { at } -> Dist_net.set_region_down net ~region:0 ~from_:at)
    gcfg.disasters;
  let root = R.create seed in
  let merged_eng =
    match mode with
    | `Merged -> Some (Engine.create ?telemetry ~dummy:Ev_none ())
    | `Epoch -> None
  in
  let curves = Warmup_curve.create_cache ~horizon:cfg.curve_horizon fc.Fleet.server app in
  let demand_mu, demand_sigma = demand_params app in
  let warm_curve = Warmup_curve.get curves Server.No_jumpstart in
  let warm_scale = Float.max 1e-9 (Warmup_curve.peak_rps warm_curve) /. cfg.warm_rps in
  let regions =
    Array.init n_regions (fun rix ->
        (* In barrier runs each region owns an engine and a private
           telemetry shard with its own clock, so no two domains ever push
           the same registry (or the same clock) concurrently; the shards
           merge into the caller's registry after the run.  The merged run
           shares one engine and the caller's registry. *)
        let eng, r_tel =
          match merged_eng with
          | Some e -> (e, telemetry)
          | None ->
            let r_tel = Option.map (fun _ -> Js_telemetry.create ()) telemetry in
            (Engine.create ?telemetry:r_tel ~dummy:Ev_none (), r_tel)
        in
        let rng_route = R.split root in
        let rng_service = R.split root in
        let rng_net = R.split root in
        let arrival_cfg =
          {
            cfg.arrival with
            Arrival.phase =
              cfg.arrival.Arrival.phase +. (float_of_int rix *. gcfg.region_phase);
          }
        in
        let arrival = Arrival.create arrival_cfg root in
        let servers =
          Array.init n_servers (fun i ->
              {
                six = i;
                bucket = i * fc.Fleet.n_buckets / n_servers;
                accepting = true;
                gen = 0;
                (* pre-push members run the previous release fully warm *)
                served = int_of_float (Warmup_curve.warm_served warm_curve /. warm_scale);
                wbuf = [||];
                whead = 0;
                wlen = 0;
                curve = warm_curve;
                scale = warm_scale;
                attempts = 0;
              })
        in
        {
          rix;
          eng;
          rng_route;
          rng_service;
          rng_net;
          arrival;
          servers;
          lb = Balancer.create cfg.policy;
          acc = Array.init n_servers Fun.id;
          acc_pos = Array.init n_servers Fun.id;
          acc_len = n_servers;
          outstanding = Array.make n_servers 0;
          mult = Array.make n_servers 1.;
          cap = Array.make n_servers 0.;
          up = true;
          spill_cursor = 0;
          r_arrived = 0;
          r_completed = 0;
          r_shed_queue_full = 0;
          r_shed_timeout = 0;
          r_shed_no_server = 0;
          r_shed_drain = 0;
          r_crashes = 0;
          crash_times = [];
          r_jump_started = 0;
          r_fallbacks = 0;
          r_spilled_out = 0;
          r_spilled_in = 0;
          r_bucket_jump_started = Array.make fc.Fleet.n_buckets 0;
          r_bucket_fallbacks = Array.make fc.Fleet.n_buckets 0;
          pending_restarts = [];
          restarts_in_flight = 0;
          r_push_started = -1.;
          r_push_done = -1.;
          ttfc = -1.;
          r_aborted = false;
          loss = 0.;
          completed_at_tick = 0;
          events = 0;
          r_latency = Stats.Quantile.create ();
          r_latency_push = Stats.Quantile.create ();
          r_capacity_series = Stats.Series.create ();
          r_served_series = Stats.Series.create ();
          r_server_latency =
            (if cfg.record_latency then
               Array.init n_servers (fun _ -> Stats.Series.create ())
             else [||]);
          r_tel;
          outbox = Array.init n_regions (fun _ -> Js_util.Par.Mailbox.create ());
        })
  in
  let g =
    {
      gcfg;
      cfg;
      app;
      net;
      curves;
      base_service = float_of_int cfg.concurrency /. cfg.warm_rps;
      demand_mu;
      demand_sigma;
      fleet_warm = float_of_int n_servers *. cfg.warm_rps;
      loss_at;
      regions;
      seeding = None;
    }
  in
  Array.iter
    (fun reg ->
      Array.iter (refresh_capacity g reg) reg.servers;
      schedule_arrival g reg ~after:0.;
      Engine.schedule reg.eng ~at:cfg.tick (Ev_tick reg.rix);
      Engine.schedule reg.eng
        ~at:(cfg.push_at +. (float_of_int reg.rix *. gcfg.push_stagger))
        (Ev_push reg.rix);
      if loss_at.(reg.rix) <= cfg.duration then
        Engine.schedule reg.eng ~at:loss_at.(reg.rix) (Ev_loss reg.rix))
    regions;
  let dispatch_ev = fun _eng ev -> dispatch g ev in
  let epochs = ref 0 in
  let domains =
    match mode with
    | `Merged -> 1
    | `Epoch -> max 1 (min n_regions (Domain.recommended_domain_count ()))
  in
  (match merged_eng with
  | Some e ->
    Engine.run e ~until:cfg.duration ~dispatch:dispatch_ev;
    epochs := 1
  | None ->
    (* Lockstep epoch barriers: every region is advanced to barrier k before
       any region advances past it.  Between barriers the regions run on
       [domains] domains — one per CPU the process may use, at most one per
       region — round-robin (domain i owns regions i, i+domains, ...).  The
       count moves no digest; three rules keep every run byte-identical to
       the merged queue's:
       - at every domain count, the epoch in which region 0's push fires
         runs on the calling domain, regions in index order — seeding writes
         shared state (the replica store, [g.seeding]) and [prewarm_curves]
         then freezes the curve cache, so all of it is read-only for every
         later epoch, and a one-domain run takes the same steps;
       - spills cross regions through per-(src, dst) mailboxes drained at the
         barrier in index order; [spill_latency >= epoch] (validated) puts
         every spill beyond the next barrier, so barrier delivery is never
         late, and spill timestamps are continuous draws, so insertion-order
         differences against the merged queue are tie-breaks on measure-zero
         events;
       - everything else a handler writes is region-partitioned (engine,
         RNG streams, stats, telemetry shard, dist-net counter shard) and
         the fork/join edges publish those writes between rounds. *)
    let k = ref 1 in
    let continue = ref true in
    while !continue do
      let lo = float_of_int (!k - 1) *. gcfg.epoch in
      let b = Float.min (float_of_int !k *. gcfg.epoch) cfg.duration in
      let push_epoch = cfg.push_at <= b && (cfg.push_at > lo || !k = 1) in
      if push_epoch then begin
        Array.iter (fun reg -> Engine.run reg.eng ~until:b ~dispatch:dispatch_ev) regions;
        prewarm_curves g
      end
      else
        Js_util.Par.fork_join ~domains (fun d ->
            let i = ref d in
            while !i < n_regions do
              Engine.run regions.(!i).eng ~until:b ~dispatch:dispatch_ev;
              i := !i + domains
            done);
      (* barrier phase: deliver this epoch's spills, (src, dst) in index order *)
      Array.iter
        (fun src ->
          Array.iteri
            (fun q mb ->
              List.iter
                (fun arrived -> schedule_spill g q ~arrived)
                (Js_util.Par.Mailbox.drain mb))
            src.outbox)
        regions;
      incr epochs;
      if b >= cfg.duration then continue := false else incr k
    done;
    (* The shards fold into the caller's registry in region order: counters
       and histograms commutatively, so totals match a shared
       single-registry run counter-for-counter. *)
    Option.iter
      (fun t ->
        Array.iter (fun reg -> Option.iter (Js_telemetry.merge ~into:t) reg.r_tel) regions)
      telemetry);
  (match telemetry with
  | Some t ->
    let arrived = Array.fold_left (fun a reg -> a + reg.r_arrived) 0 regions in
    let completed = Array.fold_left (fun a reg -> a + reg.r_completed) 0 regions in
    let loss = Array.fold_left (fun a reg -> a +. reg.loss) 0. regions in
    Js_telemetry.incr t ~by:arrived "sim.requests";
    Js_telemetry.incr t ~by:completed "sim.completed";
    Js_telemetry.set_gauge t "sim.capacity_loss_integral" loss
  | None -> ());
  let g_latency = Stats.Quantile.create () in
  let g_latency_push = Stats.Quantile.create () in
  Array.iter
    (fun reg ->
      Stats.Quantile.merge g_latency reg.r_latency;
      Stats.Quantile.merge g_latency_push reg.r_latency_push)
    regions;
  {
    g_mode = (match mode with `Merged -> "merged" | `Epoch -> "epoch");
    g_regions = Array.map (stats_of_region g) regions;
    g_latency;
    g_latency_push;
    g_epochs = !epochs;
    g_domains = domains;
    g_events = Array.fold_left (fun a reg -> a + reg.events) 0 regions;
    g_spilled = Array.fold_left (fun a reg -> a + reg.r_spilled_out) 0 regions;
    g_net = Dist_net.counters net;
  }

let run ?telemetry cfg app ~seed =
  let gs =
    run_global ?telemetry ~mode:`Merged
      { default_global_config with base = cfg }
      app ~seed
  in
  gs.g_regions.(0)

let q_or sketch q default =
  if Stats.Quantile.count sketch = 0 then default else Stats.Quantile.quantile sketch q

let digest s =
  let b = Buffer.create 512 in
  let f x = Buffer.add_string b (Printf.sprintf "%.17g;" x) in
  let i x = Buffer.add_string b (Printf.sprintf "%d;" x) in
  i s.region;
  Buffer.add_string b (Balancer.policy_to_string s.policy);
  Buffer.add_char b ';';
  Buffer.add_string b (if s.jumpstart then "js;" else "nojs;");
  i s.arrived;
  i s.completed;
  i s.shed_queue_full;
  i s.shed_timeout;
  i s.shed_no_server;
  i s.shed_drain;
  i s.crashes;
  i s.jump_started;
  i s.fallbacks;
  i s.spilled_out;
  i s.spilled_in;
  Array.iter i s.bucket_jump_started;
  Array.iter i s.bucket_fallbacks;
  i s.packages_published;
  i s.packages_rejected;
  i s.bad_packages_published;
  Buffer.add_string b (if s.aborted then "aborted;" else "ok;");
  Buffer.add_string b (if s.lost then "lost;" else "up;");
  f s.push_started;
  f s.push_done;
  f s.time_to_full_capacity;
  f s.capacity_loss_integral;
  f s.fleet_warm_rps;
  f (q_or s.latency 0.5 (-1.));
  f (q_or s.latency 0.95 (-1.));
  f (q_or s.latency 0.99 (-1.));
  f (q_or s.latency_push 0.5 (-1.));
  f (q_or s.latency_push 0.95 (-1.));
  f (q_or s.latency_push 0.99 (-1.));
  i (Stats.Series.length s.capacity_series);
  i (Stats.Series.length s.served_series);
  f (Stats.Series.integral s.capacity_series ~until:infinity);
  f (Stats.Series.integral s.served_series ~until:infinity);
  i s.events_dispatched;
  (match s.dist with
  | Some c ->
    i c.Dist_net.attempts;
    i c.Dist_net.failures;
    i c.Dist_net.timeouts;
    i c.Dist_net.stale_rejects;
    i c.Dist_net.cross_region_fetches;
    i c.Dist_net.deliveries;
    i c.Dist_net.empty_probes
  | None -> Buffer.add_string b "nodist;");
  Buffer.contents b

(* The global digest deliberately excludes [g_mode], [g_epochs] and
   [g_domains]: an epoch-barrier run on any number of domains and a merged
   run of the same seed must digest identically — that equality is the
   determinism contract `bench scale` and the qcheck property enforce. *)
let global_digest gs =
  let b = Buffer.create 1024 in
  Array.iter
    (fun s ->
      Buffer.add_string b (digest s);
      Buffer.add_char b '|')
    gs.g_regions;
  let f x = Buffer.add_string b (Printf.sprintf "%.17g;" x) in
  let i x = Buffer.add_string b (Printf.sprintf "%d;" x) in
  f (q_or gs.g_latency 0.5 (-1.));
  f (q_or gs.g_latency 0.95 (-1.));
  f (q_or gs.g_latency 0.99 (-1.));
  f (q_or gs.g_latency_push 0.5 (-1.));
  f (q_or gs.g_latency_push 0.95 (-1.));
  f (q_or gs.g_latency_push 0.99 (-1.));
  i gs.g_events;
  i gs.g_spilled;
  i gs.g_net.Dist_net.attempts;
  i gs.g_net.Dist_net.failures;
  i gs.g_net.Dist_net.timeouts;
  i gs.g_net.Dist_net.stale_rejects;
  i gs.g_net.Dist_net.cross_region_fetches;
  i gs.g_net.Dist_net.deliveries;
  i gs.g_net.Dist_net.empty_probes;
  Buffer.contents b

let pp_stats fmt s =
  Format.fprintf fmt
    "@[<v>%s %s: arrived=%d completed=%d shed(queue=%d timeout=%d no_server=%d drain=%d)@,\
     crashes=%d jump_started=%d fallbacks=%d spilled(out=%d in=%d) published=%d \
     rejected=%d bad_published=%d%s%s@,\
     push: start=%s done=%s time_to_full_capacity=%s@,\
     capacity loss=%.0f rps*s (warm fleet %.0f rps)@,\
     latency p50/p95/p99 = %.3f/%.3f/%.3f s  (during push: %.3f/%.3f/%.3f s)@]"
    (if s.jumpstart then "jump-start" else "no-jump-start")
    (Balancer.policy_to_string s.policy)
    s.arrived s.completed s.shed_queue_full s.shed_timeout s.shed_no_server s.shed_drain
    s.crashes s.jump_started s.fallbacks s.spilled_out s.spilled_in s.packages_published
    s.packages_rejected s.bad_packages_published
    (if s.aborted then " ABORTED" else "")
    (if s.lost then " LOST" else "")
    (if s.push_started >= 0. then Printf.sprintf "%.0fs" s.push_started else "never")
    (if s.push_done >= 0. then Printf.sprintf "%.0fs" s.push_done else "never")
    (if s.time_to_full_capacity >= 0. then Printf.sprintf "%.0fs" s.time_to_full_capacity
     else "never")
    s.capacity_loss_integral s.fleet_warm_rps (q_or s.latency 0.5 nan)
    (q_or s.latency 0.95 nan) (q_or s.latency 0.99 nan) (q_or s.latency_push 0.5 nan)
    (q_or s.latency_push 0.95 nan) (q_or s.latency_push 0.99 nan)

let pp_global_stats fmt gs =
  let arrived = Array.fold_left (fun a s -> a + s.arrived) 0 gs.g_regions in
  let completed = Array.fold_left (fun a s -> a + s.completed) 0 gs.g_regions in
  let loss = Array.fold_left (fun a s -> a +. s.capacity_loss_integral) 0. gs.g_regions in
  Format.fprintf fmt
    "@[<v>global (%d regions, %s mode on %d domain%s, %d epochs): arrived=%d completed=%d \
     spilled=%d events=%d@,\
     capacity loss=%.0f rps*s  latency p50/p95/p99 = %.3f/%.3f/%.3f s@,%a@]"
    (Array.length gs.g_regions) gs.g_mode gs.g_domains
    (if gs.g_domains = 1 then "" else "s")
    gs.g_epochs arrived completed gs.g_spilled gs.g_events loss
    (q_or gs.g_latency 0.5 nan)
    (q_or gs.g_latency 0.95 nan)
    (q_or gs.g_latency 0.99 nan)
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun fmt s ->
         Format.fprintf fmt "region %d: %a" s.region pp_stats s))
    (Array.to_list gs.g_regions)
