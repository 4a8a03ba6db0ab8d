module MA = Workload.Macro_app

type package = {
  covered : bool array;
  opt_bytes : int;
  compile_cycles : float;
  package_bytes : int;
  steady_speedup : float;
  quality : float;
  bad : bool;
}

type js_role = No_jumpstart | Consumer of package

type config = {
  profile_request_target : int;
  init_seconds_sequential : float;
  init_seconds_parallel : float;
  crash_delay_seconds : float;
  cold_decay_seconds : float;
  traffic_ramp_seconds : float;
}

let default_config =
  {
    profile_request_target = 1_800;
    init_seconds_sequential = 85.;
    init_seconds_parallel = 38.;
    crash_delay_seconds = 120.;
    cold_decay_seconds = 100.;
    traffic_ramp_seconds = 210.;
  }

let steady_speedup = 1.054

(* the machine every server runs on *)
let cores = 16
let offered_rps = 10_000.  (* hard cap on load directed at one server *)

(* load balancers keep servers at this CPU share, so a server's RPS tracks
   its current capacity during warmup (paper Fig. 2) *)
let utilization_target = 0.8
let jit_threads = 6  (* background optimized-compile threads *)
let deserialize_bytes_per_sec = 25.0e6
let relocation_bytes_per_sec = 0.9e6
let unit_load_cycles_per_byte = 3.0
let code_capacity_bytes = 560 * 1024 * 1024  (* JITing ceases beyond this (point "D") *)

(* extra per-request cost factor while data caches / backend connections are
   still cold, independent of the JIT; decays over [cold_decay_seconds] *)
let cold_penalty = 0.30

(* execution modes of a function on this server *)
let m_undiscovered = 0
let m_profiling = 1
let m_opt_pending = 2
let m_optimized = 3
let m_live = 4
let m_interp_only = 5
let n_modes = 6

type t = {
  cfg : config;
  app : MA.t;
  discovery : int array;
  disc_order : int array;
  mutable disc_ptr : int;
  mode : int array;
  cyc : float array;  (** cycles per bytecode instruction, per mode *)
  agg : float array;  (** per-mode sum of p_touch * weight (instrs/request) *)
  serve_start : float;  (** serving starts at this time *)
  mutable time : float;
  mutable req_count_f : float;
  mutable req_count : int;
  mutable window_open : bool;
  mutable opt_queue_cycles : float;
  mutable opt_total_bytes : float;
  mutable reloc_remaining : float;
  mutable code_bytes : float;
  mutable jit_ceased : bool;
  mutable last_rps : float;
  mutable last_latency : float;
  rps_series : Js_util.Stats.Series.t;
  latency_series : Js_util.Stats.Series.t;
  code_series : Js_util.Stats.Series.t;
  peak_request_cycles : float;
}

let base_cycles mode =
  match mode with
  | m when m = m_undiscovered || m = m_interp_only -> Jit.Tiers.cycles_per_instr Jit.Tiers.Interp
  | m when m = m_profiling || m = m_opt_pending -> Jit.Tiers.cycles_per_instr Jit.Tiers.Profiling
  | m when m = m_optimized -> Jit.Tiers.cycles_per_instr Jit.Tiers.Optimized
  | m when m = m_live -> Jit.Tiers.cycles_per_instr Jit.Tiers.Live
  | _ -> invalid_arg "Server.base_cycles"

(* Final per-request cycles once fully warmed, used for normalization.
   Functions profiled inside the window end up optimized; later discoveries
   get live translations while code-cache capacity lasts; the rest stay
   interpreted. *)
let compute_peak cfg (app : MA.t) role discovery cyc =
  let n = Array.length app.MA.funcs in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare discovery.(a) discovery.(b)) order;
  let covered f =
    match role with
    | Consumer p -> p.covered.(f)
    | No_jumpstart -> false
  in
  let code = ref 0. in
  (match role with
  | Consumer p -> code := float_of_int p.opt_bytes
  | No_jumpstart -> ());
  let total = ref 0. in
  Array.iter
    (fun f ->
      let mf = app.MA.funcs.(f) in
      let size = float_of_int mf.MA.size in
      let mode =
        if covered f then m_optimized
        else if discovery.(f) > 100_000_000 then m_interp_only (* effectively never *)
        else begin
          match role with
          | No_jumpstart ->
            if discovery.(f) <= cfg.profile_request_target then begin
              code := !code +. (size *. Jit.Tiers.code_expansion Jit.Tiers.Optimized);
              m_optimized
            end
            else if !code < float_of_int code_capacity_bytes then begin
              code := !code +. (size *. Jit.Tiers.code_expansion Jit.Tiers.Live);
              m_live
            end
            else m_interp_only
          | Consumer _ ->
            if !code < float_of_int code_capacity_bytes then begin
              code := !code +. (size *. Jit.Tiers.code_expansion Jit.Tiers.Live);
              m_live
            end
            else m_interp_only
        end
      in
      total := !total +. (mf.MA.p_touch *. mf.MA.weight *. cyc.(mode)))
    order;
  !total

let create ?(discovery_seed = 1234) cfg app role =
  let rng = Js_util.Rng.create discovery_seed in
  let discovery = MA.sample_discovery app rng in
  let n = Array.length app.MA.funcs in
  let disc_order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare discovery.(a) discovery.(b)) disc_order;
  let cyc = Array.init n_modes base_cycles in
  (match role with
  | Consumer p ->
    let s = 1. +. ((p.steady_speedup -. 1.) *. p.quality) in
    cyc.(m_optimized) <- cyc.(m_optimized) /. s
  | No_jumpstart -> ());
  let mode = Array.make n m_undiscovered in
  let agg = Array.make n_modes 0. in
  let code = ref 0. in
  (* consumers start with every covered function optimized *)
  (match role with
  | Consumer p ->
    Array.iteri
      (fun f (mf : MA.mfunc) ->
        if p.covered.(f) then begin
          mode.(f) <- m_optimized;
          agg.(m_optimized) <- agg.(m_optimized) +. (mf.MA.p_touch *. mf.MA.weight)
        end
        else agg.(m_undiscovered) <- agg.(m_undiscovered) +. (mf.MA.p_touch *. mf.MA.weight))
      app.MA.funcs;
    code := float_of_int p.opt_bytes
  | No_jumpstart ->
    Array.iter
      (fun (mf : MA.mfunc) ->
        agg.(m_undiscovered) <- agg.(m_undiscovered) +. (mf.MA.p_touch *. mf.MA.weight))
      app.MA.funcs);
  let serve_start =
    match role with
    | No_jumpstart -> cfg.init_seconds_sequential
    | Consumer p ->
      let deser = float_of_int p.package_bytes /. deserialize_bytes_per_sec in
      let compile = p.compile_cycles /. (float_of_int cores *. Jit.Tiers.clock_hz) in
      deser +. compile +. cfg.init_seconds_parallel
  in
  let peak_request_cycles = compute_peak cfg app role discovery cyc in
  {
    cfg;
    app;
    discovery;
    disc_order;
    disc_ptr = 0;
    mode;
    cyc;
    agg;
    serve_start;
    time = 0.;
    req_count_f = 0.;
    req_count = 0;
    window_open = (match role with Consumer _ -> false | No_jumpstart -> true);
    opt_queue_cycles = 0.;
    opt_total_bytes = 0.;
    reloc_remaining = 0.;
    code_bytes = !code;
    jit_ceased = false;
    last_rps = 0.;
    last_latency = 0.;
    rps_series = Js_util.Stats.Series.create ();
    latency_series = Js_util.Stats.Series.create ();
    code_series = Js_util.Stats.Series.create ();
    peak_request_cycles;
  }

let move_agg t f ~from ~into =
  let mf = t.app.MA.funcs.(f) in
  let share = mf.MA.p_touch *. mf.MA.weight in
  t.agg.(from) <- t.agg.(from) -. share;
  t.agg.(into) <- t.agg.(into) +. share;
  t.mode.(f) <- into

(* Process function discoveries up to the current request count; returns the
   synchronous overhead cycles charged (unit loading + cheap translations). *)
let process_discoveries t =
  let overhead = ref 0. in
  let n = Array.length t.disc_order in
  while
    t.disc_ptr < n
    && t.discovery.(t.disc_order.(t.disc_ptr)) <= t.req_count
  do
    let f = t.disc_order.(t.disc_ptr) in
    t.disc_ptr <- t.disc_ptr + 1;
    if t.mode.(f) = m_undiscovered then begin
      let mf = t.app.MA.funcs.(f) in
      let size = float_of_int mf.MA.size in
      overhead := !overhead +. (size *. unit_load_cycles_per_byte);
      if t.window_open then begin
        overhead := !overhead +. (size *. Jit.Tiers.compile_cycles_per_byte Jit.Tiers.Profiling);
        t.code_bytes <- t.code_bytes +. (size *. Jit.Tiers.code_expansion Jit.Tiers.Profiling);
        move_agg t f ~from:m_undiscovered ~into:m_profiling
      end
      else if
        (not t.jit_ceased)
        && t.code_bytes +. (size *. Jit.Tiers.code_expansion Jit.Tiers.Live)
           < float_of_int code_capacity_bytes
      then begin
        overhead := !overhead +. (size *. Jit.Tiers.compile_cycles_per_byte Jit.Tiers.Live);
        t.code_bytes <- t.code_bytes +. (size *. Jit.Tiers.code_expansion Jit.Tiers.Live);
        move_agg t f ~from:m_undiscovered ~into:m_live
      end
      else begin
        t.jit_ceased <- true;
        move_agg t f ~from:m_undiscovered ~into:m_interp_only
      end
    end
  done;
  !overhead

let close_window t =
  t.window_open <- false;
  Array.iteri
    (fun f m ->
      if m = m_profiling then begin
        let size = float_of_int t.app.MA.funcs.(f).MA.size in
        t.opt_queue_cycles <-
          t.opt_queue_cycles
          +. (size *. Jit.Tiers.compile_cycles_per_byte Jit.Tiers.Optimized);
        t.opt_total_bytes <-
          t.opt_total_bytes +. (size *. Jit.Tiers.code_expansion Jit.Tiers.Optimized);
        move_agg t f ~from:m_profiling ~into:m_opt_pending
      end)
    t.mode

let activate_optimized t =
  Array.iteri (fun f m -> if m = m_opt_pending then move_agg t f ~from:m_opt_pending ~into:m_optimized) t.mode

let request_cycles t =
  let acc = ref 0. in
  for m = 0 to n_modes - 1 do
    acc := !acc +. (t.agg.(m) *. t.cyc.(m))
  done;
  !acc

let record t ~rps ~latency =
  t.last_rps <- rps;
  t.last_latency <- latency;
  Js_util.Stats.Series.add t.rps_series ~time:t.time ~value:rps;
  Js_util.Stats.Series.add t.latency_series ~time:t.time ~value:latency;
  Js_util.Stats.Series.add t.code_series ~time:t.time ~value:t.code_bytes

(* Residual warmup beyond the JIT: cold data caches, backend connections,
   per-request state (paper §VII-A's "warming up some HHVM extensions that
   talk to backend services").  Decays with serving time. *)
let cold_factor t =
  let serving_seconds = Float.max 0. (t.time -. t.serve_start) in
  1. +. (cold_penalty *. exp (-.serving_seconds /. t.cfg.cold_decay_seconds))

let serve t ~dt =
  let cfg = t.cfg in
  let budget = ref (float_of_int cores *. Jit.Tiers.clock_hz *. dt) in
  (* background optimized compilation (A -> B) *)
  if t.opt_queue_cycles > 0. then begin
    let jit_budget =
      Float.min t.opt_queue_cycles
        (float_of_int jit_threads /. float_of_int cores *. !budget)
    in
    t.opt_queue_cycles <- t.opt_queue_cycles -. jit_budget;
    budget := !budget -. jit_budget;
    if t.opt_queue_cycles <= 0. then t.reloc_remaining <- t.opt_total_bytes
  end
  else if t.reloc_remaining > 0. then begin
    (* relocation into the code cache (B -> C) *)
    let moved = Float.min t.reloc_remaining (relocation_bytes_per_sec *. dt) in
    t.reloc_remaining <- t.reloc_remaining -. moved;
    t.code_bytes <- t.code_bytes +. moved;
    if t.reloc_remaining <= 0. then activate_optimized t
  end;
  let req_cycles = request_cycles t *. cold_factor t in
  let est_requests =
    Float.min (offered_rps *. dt) (utilization_target *. !budget /. req_cycles)
  in
  (* expected discoveries for this tick's requests *)
  t.req_count <- int_of_float (t.req_count_f +. est_requests);
  let overhead = process_discoveries t in
  if t.window_open && t.req_count >= cfg.profile_request_target then close_window t;
  let serve_budget = Float.max 0. ((utilization_target *. !budget) -. overhead) in
  let req_cycles = request_cycles t *. cold_factor t in
  (* load-balancer slow start: traffic to a restarted server ramps up *)
  let ramp =
    if cfg.traffic_ramp_seconds <= 0. then 1.
    else Float.min 1. ((t.time -. t.serve_start) /. cfg.traffic_ramp_seconds)
  in
  let requests =
    Float.min (offered_rps *. dt) (ramp *. serve_budget /. req_cycles)
  in
  t.req_count_f <- t.req_count_f +. requests;
  t.req_count <- int_of_float t.req_count_f;
  let latency =
    (req_cycles +. (overhead /. Float.max 1. est_requests)) /. Jit.Tiers.clock_hz
  in
  record t ~rps:(requests /. dt) ~latency

let step t ~dt =
  t.time <- t.time +. dt;
  if t.time >= t.serve_start then serve t ~dt else record t ~rps:0. ~latency:0.

let run t ~until ~dt =
  while t.time < until do
    step t ~dt
  done

let boot_seconds t = t.serve_start
let requests_served t = t.req_count_f
let serving t = t.time >= t.serve_start
let current_rps t = t.last_rps
let current_latency t = t.last_latency
let code_bytes t = int_of_float t.code_bytes

let peak_rps t =
  Float.min offered_rps
    (utilization_target *. float_of_int cores *. Jit.Tiers.clock_hz /. t.peak_request_cycles)

let rps_series t = t.rps_series
let latency_series t = t.latency_series
let code_series t = t.code_series

let make_package cfg (app : MA.t) ?(quality = 1.0) ?(bad = false) () =
  let n = Array.length app.MA.funcs in
  let effective_target = float_of_int cfg.profile_request_target *. quality in
  let threshold = log 2. /. Float.max 1. effective_target in
  let covered = Array.map (fun (f : MA.mfunc) -> f.MA.p_touch >= threshold) app.MA.funcs in
  let opt_bytes = ref 0. and compile = ref 0. and bytecode = ref 0 in
  for f = 0 to n - 1 do
    if covered.(f) then begin
      let size = float_of_int app.MA.funcs.(f).MA.size in
      opt_bytes := !opt_bytes +. (size *. Jit.Tiers.code_expansion Jit.Tiers.Optimized);
      compile := !compile +. (size *. Jit.Tiers.compile_cycles_per_byte Jit.Tiers.Optimized);
      bytecode := !bytecode + app.MA.funcs.(f).MA.size
    end
  done;
  {
    covered;
    opt_bytes = int_of_float !opt_bytes;
    compile_cycles = !compile;
    package_bytes = !bytecode / 3;
    steady_speedup;
    quality;
    bad;
  }
