(* The four benchmark workloads.

   Each one times only calls into public library functions.  The untraced
   pass measures the end-to-end numbers; the traced pass (--trace 1) reruns
   the same ops with spans on and, for calls that hide several layers
   (Seeder.run, Consumer.boot_dist), replays their public sub-calls in the
   same order so every second of an op lands on a layer. *)

module JS = Jumpstart
module Rng = Js_util.Rng
module Stats = Js_util.Stats
module T = Trace

type size = Full | Smoke

type config = {
  seed : int;
  seconds : float;  (** measurement budget of the untraced pass *)
  size : size;
  traced : bool;
}

type result = {
  setup_s : float array;  (** one sample per set-up repetition *)
  op_s : float array;  (** untraced wall seconds per op *)
  attempted : int;
  failed : int;
  sim_slowdown : float;
  peak_heap_mb : float;  (** top of the major heap through set-up and the first op *)
  layer : (string * float) list;  (** per-layer metrics; traced runs only *)
  info : (string * string) list;  (** provenance: digests, derived seeds *)
}

let now = Unix.gettimeofday
let md5 s = Digest.to_hex (Digest.string s)
let fsum = List.fold_left ( +. ) 0.
let median_of l = Stats.median (Array.of_list l)
let mean_of l = Stats.mean (Array.of_list l)

(* Times set-up [f]: [reps] runs up front, keeping the last state, then
   [between] more runs, states dropped, each time the returned [again] is
   called.  [run_ops] calls it between ops, so the set-up samples spread
   over the run as the ops do: the host has slow spells lasting seconds, and
   samples taken all at once would report whichever spell the run began in.
   Returns the state, the samples ref and [again]. *)
let timed_setup cfg ~reps ?(between = 0) f =
  let reps, between = match cfg.size with Full -> (reps, between) | Smoke -> (1, 0) in
  let samples = ref [] in
  let once () =
    Gc.full_major ();
    let t0 = now () in
    let st = f () in
    samples := (now () -. t0) :: !samples;
    st
  in
  let st = ref None in
  for _ = 1 to reps do
    st := None;
    st := Some (once ())
  done;
  (Option.get !st, samples, fun () -> for _ = 1 to between do ignore (once ()) done)

(* Runs ops 0, 1, ... until [seconds] have passed and at least [min_ops]
   ran, stopping only after a multiple of [cycle] ops; [between i] runs
   before op [i], for every op but the first. *)
let run_ops ?(cycle = 1) ?(between = ignore) ~seconds ~min_ops f =
  let t0 = now () in
  let rec go i acc =
    if i >= min_ops && i mod cycle = 0 && now () -. t0 >= seconds then List.rev acc
    else begin
      if i > 0 then between i;
      go (i + 1) (f i :: acc)
    end
  in
  go 0 []

let heap_mb () = float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Wraps op [f] so that, once op [n - 1] has run, the returned ref holds
   the top of the major heap so far: a point that does not depend on how
   many ops the time budget allows. *)
let with_peak_after n f =
  let peak = ref 0. in
  ((fun i -> let o = f i in if i = n - 1 then peak := heap_mb (); o), peak)

type sample = { secs : float; words : float; majors : int }

(* Times [f] and counts the minor words it allocates and the major
   collections it causes. *)
let timed f =
  let w0 = Gc.minor_words () and m0 = (Gc.quick_stat ()).major_collections in
  let t0 = now () in
  let r = f () in
  let secs = now () -. t0 in
  (r, { secs; words = Gc.minor_words () -. w0; majors = (Gc.quick_stat ()).major_collections - m0 })

(* Allocation per op over [samples] covering [ops] ops. *)
let gc_metrics ~ops samples =
  let n = float_of_int (max 1 ops) in
  [ ("gc.minor_mwords", fsum (List.map (fun s -> s.words) samples) /. n /. 1e6);
    ("gc.major_collections", float_of_int (List.fold_left (fun a s -> a + s.majors) 0 samples) /. n)
  ]

(* Op [i] of a run with seed [n] uses base seed [n + i]; stream [k] of that
   base is seeded [base * 16 + k]. *)
let stream base k = (base * 16) + k

let drive (app : Workload.Codegen.app) ~seed ~n engine =
  let mix = Workload.Request.mix app ~region:0 ~bucket:0 in
  let rng = Rng.create seed in
  for _ = 1 to n do
    ignore (Workload.Request.invoke engine app (Workload.Request.sample rng mix))
  done

let placement_md5 (c : Jit.Compiler.compiled) =
  let b = Buffer.create 65536 in
  List.iter
    (fun (p : Jit.Code_cache.placed) ->
      Printf.bprintf b "%d %d %d %d %d %d;" p.vfunc.root_fid p.n_hot p.hot_base p.hot_size
        p.cold_base p.cold_size;
      Array.iter (fun x -> Printf.bprintf b "%d," x) p.order;
      Array.iter (fun x -> Printf.bprintf b "%d," x) p.offsets)
    (Jit.Code_cache.placed_list c.cache);
  md5 (Buffer.contents b)

(* ------------------------------------------------------ machine replay -- *)

let hierarchy_sink hier =
  {
    Jit.Trace_adapter.fetch = (fun ~addr ~size -> Machine.Hierarchy.fetch hier ~addr ~size);
    branch = (fun ~pc ~target ~taken -> Machine.Hierarchy.branch hier ~pc ~target ~taken);
    load = (fun ~addr -> Machine.Hierarchy.load hier ~addr);
    store = (fun ~addr -> Machine.Hierarchy.store hier ~addr);
  }

(* Receives what the machine model would, and only counts it. *)
let counting_sink calls =
  {
    Jit.Trace_adapter.fetch = (fun ~addr:_ ~size:_ -> incr calls);
    branch = (fun ~pc:_ ~target:_ ~taken:_ -> incr calls);
    load = (fun ~addr:_ -> incr calls);
    store = (fun ~addr:_ -> incr calls);
  }

let replay_engine (vm : JS.Consumer.vm) sink =
  let probes =
    Jit.Context.probes vm.repo ~lookup:(Jit.Compiler.lookup vm.compiled)
      (Jit.Trace_adapter.handler ~cache:vm.compiled.cache sink)
  in
  JS.Consumer.serving_engine vm ~probes ()

type replay = {
  snap : Machine.Hierarchy.snapshot;
  steps : int;  (** interpreter steps over the measured requests *)
  replay_s : float;  (** wall seconds of the measured requests *)
  measured : int;
}

(* Where replayed requests go: a plain serving engine, a given trace sink,
   or the machine model. *)
type target = Plain | Sink of Jit.Trace_adapter.sink | Machine

(* [warm] requests fill the caches and predictor, then [measure] requests
   are counted.  All come from one stream: the same [seed] gives the same
   requests. *)
let replay ?(target = Machine) vm app ~seed ~warm ~measure =
  let hier = Machine.Hierarchy.create Machine.Hierarchy.default_config in
  let engine =
    match target with
    | Plain -> JS.Consumer.serving_engine vm ()
    | Sink sink -> replay_engine vm sink
    | Machine -> replay_engine vm (hierarchy_sink hier)
  in
  let mix = Workload.Request.mix app ~region:0 ~bucket:0 in
  let rng = Rng.create seed in
  let serve n =
    for _ = 1 to n do
      ignore (Workload.Request.invoke engine app (Workload.Request.sample rng mix))
    done
  in
  serve warm;
  Machine.Hierarchy.reset_stats hier;
  let steps0 = Interp.Engine.steps engine in
  let t0 = now () in
  serve measure;
  let replay_s = now () -. t0 in
  {
    snap = Machine.Hierarchy.snapshot hier;
    steps = Interp.Engine.steps engine - steps0;
    replay_s;
    measured = measure;
  }

(* Simulated cycles over the cycles a perfect front-end would need. *)
let slowdown r =
  let cfg = Machine.Hierarchy.default_config in
  Machine.Hierarchy.cpi r.snap cfg /. cfg.base_cpi

let machine_metrics r =
  let s = r.snap in
  let mr = Machine.Cache.miss_rate in
  [ ("machine.cycles_per_req", s.cycles /. float_of_int r.measured);
    ("machine.replay_req_per_s", float_of_int r.measured /. r.replay_s);
    ("machine.l1i_mr", mr s.l1i_s);
    ("machine.itlb_mr", mr s.itlb_s);
    ("machine.l1d_mr", mr s.l1d_s);
    ("machine.dtlb_mr", mr s.dtlb_s);
    ("machine.llc_mr", mr s.llc_s);
    ("machine.branch_mr", Machine.Branch.mispredict_rate s.branch_s)
  ]

let code_bytes (c : Jit.Compiler.compiled) =
  [ ("jit.hot_bytes", float_of_int (Jit.Code_cache.used_hot c.cache));
    ("jit.cold_bytes", float_of_int (Jit.Code_cache.used_cold c.cache))
  ]

(* ------------------------------------------------- traced sub-call replay -- *)

let options = JS.Options.default

(* The app of smoke-size runs: small enough that a boot's block layout
   takes well under 0.1 s. *)
let smoke_spec =
  { Workload.App_spec.tiny with n_workers = 12; n_endpoints = 3; endpoint_loop = 1 }

type compiled = {
  vm : JS.Consumer.vm;
  package : JS.Package.t;
  vfuncs : (Hhbc.Instr.fid * Vasm.Vfunc.t) list;
  finish_s : float;
}

(* [Consumer.boot_with_package], replayed: class layouts, lowering, then
   block layout and placement. *)
let compile_package repo (package : JS.Package.t) =
  let counters = package.counters in
  let layouts =
    T.span "runtime.class_layout" (fun () ->
        Mh_runtime.Class_layout.build repo ~reorder:options.prop_reorder_opt
          ~hotness:(fun cid nid -> Jit_profile.Counters.prop_hotness counters cid nid))
  in
  let config = JS.Consumer.compile_config options in
  let vfuncs = T.span "jit.lower" (fun () -> Jit.Compiler.lower_all repo counters config) in
  let measured = if options.bb_layout_opt then Some package.vasm else None in
  let order = if options.func_sort_opt then Some package.func_order else None in
  let t0 = now () in
  let compiled =
    T.span "jit.finish" (fun () -> Jit.Compiler.finish repo counters config ~measured ?order vfuncs)
  in
  let finish_s = now () -. t0 in
  let vm = { JS.Consumer.repo; options; package = Some package; counters; layouts; compiled } in
  { vm; package; vfuncs; finish_s }

(* Probe outside the pipeline total: the block layout [Compiler.finish]
   performs for these translations, timed on its own.  Returns the number
   of blocks laid out. *)
let arrange_probe c =
  let threshold = (JS.Consumer.compile_config options).hot_threshold in
  T.span "layout.arrange" (fun () ->
      List.fold_left
        (fun blocks (_, vf) ->
          let cfg = Jit.Vasm_profile.to_cfg c.package.vasm vf in
          ignore (Layout.Hotcold.arrange cfg ~threshold ~order_hot:Layout.Exttsp.layout);
          blocks + Layout.Cfg.n_blocks cfg)
        0 c.vfuncs)

let healthy vm traffic =
  T.span "interp.check" (fun () ->
      match traffic (JS.Consumer.serving_engine vm ()) with
      | () -> true
      | exception (Interp.Engine.Runtime_error _ | Failure _) -> false)

let ( let* ) = Result.bind

(* [Seeder.run], replayed phase by phase with the same calls in the same
   order.  Returns the package bytes and the tier-1 interpreter steps. *)
let replay_seeder repo ~profile ~optimized ~validation ~seeder_id =
  let counters, layouts, profile_steps =
    T.span "interp.profile" (fun () ->
        let counters = Jit_profile.Counters.create repo in
        let layouts = Mh_runtime.Class_layout.build repo ~reorder:false ~hotness:(fun _ _ -> 0) in
        let engine =
          Interp.Engine.create ~probes:(Jit_profile.Collector.probes counters) repo
            (Mh_runtime.Heap.create repo layouts)
        in
        profile engine;
        (counters, layouts, Interp.Engine.steps engine))
  in
  let config =
    { (JS.Consumer.compile_config options) with Jit.Compiler.mode = Vasm.Lower.Instrumented }
  in
  let vfuncs = T.span "jit.lower" (fun () -> Jit.Compiler.lower_all repo counters config) in
  let measured =
    T.span "interp.instrument" (fun () ->
        let measured = Jit.Vasm_profile.create () in
        let lookup fid = List.assoc_opt fid vfuncs in
        let probes = Jit.Context.probes repo ~lookup (Jit.Vasm_profile.handler measured) in
        optimized (Interp.Engine.create ~probes repo (Mh_runtime.Heap.create repo layouts));
        measured)
  in
  let func_order =
    T.span "jit.order" (fun () ->
        Jit.Compiler.function_order counters
          { config with Jit.Compiler.func_order = Jit.Compiler.C3_tier2 }
          ~measured:(Some measured) vfuncs)
  in
  let package, bytes =
    T.span "core.encode" (fun () ->
        let package =
          {
            JS.Package.meta =
              {
                JS.Package.region = 0;
                bucket = 0;
                seeder_id;
                n_profiled_funcs = List.length (Jit_profile.Counters.profiled_funcs counters);
                total_entries = Jit_profile.Counters.total_entries counters;
                repo_fingerprint = Hhbc.Repo.fingerprint repo;
                published_at = 0;
              };
            counters = Jit_profile.Counters.copy counters;
            vasm = measured;
            func_order;
            preload_units = Array.of_list (Jit_profile.Counters.touched_units counters);
          }
        in
        (package, JS.Package.to_bytes package))
  in
  let* () = JS.Package.check_coverage package options in
  let* reread = T.span "core.decode" (fun () -> JS.Package.of_bytes repo bytes) in
  let* () = T.span "core.check" (fun () -> JS.Package_check.result repo reread) in
  let c = compile_package repo reread in
  let tree_errors =
    T.span "analysis.inline_tree" (fun () ->
        Hashtbl.fold
          (fun _ vf n ->
            n + List.length (Js_analysis.Diag.errors (Js_analysis.Verify.check_inline_tree repo vf)))
          c.vm.compiled.vfuncs 0)
  in
  if tree_errors > 0 then Error "inline-tree errors"
  else if not (healthy c.vm validation) then Error "validation traffic failed"
  else Ok (bytes, package.meta, profile_steps)

(* [Consumer.boot_dist]'s first attempt, replayed: fetch, exact or salvage
   decode, verify, coverage, compile, health check. *)
let replay_boot repo dist rng ~health =
  let fetched =
    T.span "core.fetch" (fun () -> JS.Dist_store.fetch dist rng ~now:0. ~region:0 ~bucket:0)
  in
  let* package, salvage =
    match fetched with
    | JS.Dist_store.Delivered { bytes; _ } ->
      let* p = T.span "core.decode" (fun () -> JS.Package.of_bytes repo bytes) in
      Ok (p, None)
    | JS.Dist_store.Rejected { kind = JS.Dist_store.Fingerprint_mismatch; bytes; _ } ->
      let* p, stats = T.span "core.salvage" (fun () -> JS.Package.of_bytes_stale repo bytes) in
      if stats.funcs_matched = 0 || Jit_profile.Stale_match.quality stats < options.salvage_min_match
      then Error "salvage below threshold"
      else Ok (p, Some stats)
    | _ -> Error "fetch delivered no package"
  in
  let* () = T.span "core.check" (fun () -> JS.Package_check.result repo package) in
  let* () = JS.Package.check_coverage package options in
  let c = compile_package repo package in
  if healthy c.vm health then Ok (c, salvage) else Error "health check failed"

let publish repo bytes meta =
  T.span "core.publish" (fun () ->
      let store = JS.Store.create () in
      JS.Store.publish store ~region:0 ~bucket:0 bytes meta;
      JS.Dist_store.create ~repo store)

(* ------------------------------------------------------ span summaries -- *)

let containers = [ "op"; "seed"; "boot" ]

(* Spans timed outside the ops they belong to. *)
let probes = [ "layout.arrange"; "sim.curve_build" ]

(* Per-op span totals and self times over the traced ops, and the worst
   op's unattributed share: the self time of the container spans (op, seed,
   boot) inside an "op" span, which no layer span covers, over the op's
   duration. *)
let span_metrics ~n_ops =
  let spans = T.spans () in
  let selfs = T.self_times spans in
  let per_op x = x /. float_of_int (max 1 n_ops) in
  let total name =
    per_op (fsum (List.filter_map (fun (s : T.span) -> if s.name = name then Some (T.dur s) else None) spans))
  in
  let self name =
    per_op (fsum (List.filter_map (fun ((s : T.span), st) -> if s.name = name then Some st else None) selfs))
  in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (s : T.span) -> Hashtbl.replace by_id s.id s) spans;
  let rec op_of (s : T.span) =
    if s.name = "op" then Some s.id else Option.bind (Hashtbl.find_opt by_id s.parent) op_of
  in
  let unattributed = Hashtbl.create 64 in
  List.iter
    (fun ((s : T.span), st) ->
      match op_of s with
      | Some op when List.mem s.name containers ->
        Hashtbl.replace unattributed op (st +. Option.value ~default:0. (Hashtbl.find_opt unattributed op))
      | _ -> ())
    selfs;
  let worst =
    Hashtbl.fold (fun op un w -> Float.max w (un /. T.dur (Hashtbl.find by_id op))) unattributed 0.
  in
  (total, self, worst)

(* What a product op leaves behind: its timing, the digests the traced
   rerun must reproduce, and the machine replay of the code it booted.  The
   booted VM itself is dropped as soon as the op is checked. *)
type op = {
  sample : sample;
  phases : float * float;  (** seconds in Seeder.run, seconds booting *)
  bytes_md5 : string;
  placement : string;
  replayed : replay option;  (** [None]: the op failed its checks *)
}

let failed_op sample phases =
  { sample; phases; bytes_md5 = ""; placement = ""; replayed = None }

let ok_ops ops = List.filter (fun o -> Option.is_some o.replayed) ops

(* The exact outputs of a run, over its first [first] ops, a set that does
   not depend on how many ops the time budget allows: the median slowdown
   of their replays, the first replay's machine metrics, and digests of
   their package bytes and code placement. *)
let exact_outputs ~first ops =
  let ops = List.filteri (fun i _ -> i < first) ops in
  let digest f = md5 (String.concat "" (List.map f ops)) in
  let digests =
    [ ("package_md5", digest (fun o -> o.bytes_md5)); ("placement_md5", digest (fun o -> o.placement)) ]
  in
  match List.filter_map (fun o -> o.replayed) ops with
  | [] -> (0., [], digests)
  | r :: _ as rs -> (median_of (List.map slowdown rs), machine_metrics r, digests)

(* A traced rerun of a product op that reproduced it: the boot it
   compiled, the blocks the layout probe laid out, traced minus untraced
   seconds, and what else the workload keeps. *)
type 'a traced = { c : compiled; blocks : int; overhead : float; extra : 'a }

(* Reruns every op that passed its checks under spans.  [rerun i] replays op
   [i] inside its "op" span; [reproduces o c extra] then checks the rerun
   against product op [o] outside it, and only reruns that pass are kept. *)
let trace_ops ops ~rerun ~reproduces =
  T.start ();
  let traced =
    List.mapi
      (fun i o ->
        T.set_op i;
        let r, t = timed (fun () -> T.span "op" (fun () -> rerun i)) in
        match r with
        | Ok (c, extra) when Option.is_some o.replayed && reproduces o c extra ->
          Some { c; blocks = arrange_probe c; overhead = t.secs -. o.sample.secs; extra }
        | Ok _ | Error _ -> None)
      ops
  in
  T.stop ();
  List.filter_map Fun.id traced

(* The boot path's per-layer metrics, shared by seed-boot and churn-boot,
   with the span totals, self times and averages they come from. *)
let boot_layers traced =
  let total, self, unattributed = span_metrics ~n_ops:(List.length traced) in
  let avg f = if traced = [] then 0. else mean_of (List.map f traced) in
  let finish = avg (fun t -> t.c.finish_s) in
  let layers =
    [ ("boot.self_s", self "boot");
      ("interp.check_s", total "interp.check");
      ("jit.lower_s", total "jit.lower");
      ("jit.translations", avg (fun t -> float_of_int t.c.vm.compiled.n_translations));
      ("jit.finish_s", total "jit.finish");
      ("layout.arrange_s", total "layout.arrange");
      ("layout.blocks", avg (fun t -> float_of_int t.blocks));
      ("layout.arrange_share", if finish > 0. then total "layout.arrange" /. finish else 0.);
      ("runtime.class_layout_s", total "runtime.class_layout");
      ("core.publish_s", total "core.publish");
      ("core.fetch_s", total "core.fetch");
      ("core.check_s", total "core.check");
      ("trace.unattributed_share", unattributed);
      ("trace.overhead_s", avg (fun t -> t.overhead))
    ]
    @ match traced with t :: _ -> code_bytes t.c.vm.compiled | [] -> []
  in
  (layers, total, self, avg)

(* ----------------------------------------------------------- seed-boot -- *)

let seed_boot cfg =
  let spec, n_profile, n_opt, n_valid, n_health, warm, measure =
    match cfg.size with
    | Full -> (Workload.App_spec.default, 600, 600, 50, 50, 60, 200)
    | Smoke -> (smoke_spec, 60, 60, 10, 10, 10, 40)
  in
  let app, setup_s, again =
    timed_setup cfg ~reps:4 ~between:4 (fun () -> Workload.Codegen.generate spec)
  in
  let repo = app.repo in
  let base i = cfg.seed + i in
  let tr i k n = drive app ~seed:(stream (base i) k) ~n in
  (* the product op: Seeder.run, publish, boot through the dist store *)
  let product i =
    Gc.full_major ();
    let (booted, seed_s, boot_s), sample =
      timed (fun () ->
          let t0 = now () in
          let seeded =
            JS.Seeder.run repo options ~profile_traffic:(tr i 1 n_profile)
              ~optimized_traffic:(tr i 2 n_opt) ~validation_traffic:(tr i 3 n_valid) ~region:0
              ~bucket:0 ~seeder_id:i ()
          in
          let t1 = now () in
          match seeded with
          | Error _ -> (None, t1 -. t0, 0.)
          | Ok o ->
            let dist = publish repo o.bytes o.package.meta in
            let t2 = now () in
            let boot =
              JS.Consumer.boot_dist repo options dist (Rng.create (stream (base i) 6)) ~region:0
                ~bucket:0 ~health_traffic:(tr i 4 n_health) ~fallback_traffic:(tr i 5 n_profile) ()
            in
            let booted = match boot with Jump_started vm -> Some (o.bytes, vm) | Fell_back _ -> None in
            (booted, t1 -. t0, now () -. t2))
    in
    match booted with
    | None -> failed_op sample (seed_s, boot_s)
    | Some (bytes, vm) ->
      {
        sample;
        phases = (seed_s, boot_s);
        bytes_md5 = md5 bytes;
        placement = placement_md5 vm.compiled;
        replayed = Some (replay vm app ~seed:(stream (base i) 7) ~warm ~measure);
      }
  in
  let budget = if cfg.traced then cfg.seconds /. 2. else cfg.seconds in
  let product, peak = with_peak_after 1 product in
  let ops = run_ops ~between:(fun _ -> again ()) ~seconds:budget ~min_ops:1 product in
  let n = List.length ops in
  let good = ok_ops ops in
  let op_s = Array.of_list (List.map (fun o -> o.sample.secs) ops) in
  let seed_s = median_of (List.map (fun o -> fst o.phases) ops) in
  let boot_s = median_of (List.map (fun o -> snd o.phases) ops) in
  let sim_slowdown, machine, digests = exact_outputs ~first:1 ops in
  let info =
    [ ("op_seeds", String.concat "," (List.init n (fun i -> string_of_int (base i))));
      ("seed_s", Printf.sprintf "%.4f" seed_s);
      ("boot_s", Printf.sprintf "%.4f" boot_s)
    ]
    @ digests
  in
  let result failed layer =
    {
      setup_s = Array.of_list !setup_s;
      op_s;
      attempted = n;
      failed;
      sim_slowdown;
      peak_heap_mb = !peak;
      layer;
      info;
    }
  in
  if not cfg.traced then result (n - List.length good) []
  else begin
    (* the same ops again, replayed under spans; each must reproduce the
       product's package bytes and code placement *)
    let traced =
      trace_ops ops
        ~rerun:(fun i ->
          let* bytes, meta, steps =
            T.span "seed" (fun () ->
                replay_seeder repo ~profile:(tr i 1 n_profile) ~optimized:(tr i 2 n_opt)
                  ~validation:(tr i 3 n_valid) ~seeder_id:i)
          in
          let dist = publish repo bytes meta in
          let* c, _ =
            T.span "boot" (fun () ->
                replay_boot repo dist (Rng.create (stream (base i) 6)) ~health:(tr i 4 n_health))
          in
          Ok (c, (bytes, steps)))
        ~reproduces:(fun o c (bytes, _) ->
          md5 bytes = o.bytes_md5 && placement_md5 c.vm.compiled = o.placement)
    in
    let shared, total, self, avg = boot_layers traced in
    let layer =
      [ ("seed.total_s", seed_s);
        ("boot.total_s", boot_s);
        ("seed.self_s", self "seed");
        ("interp.profile_s", total "interp.profile");
        ("interp.profile_steps", avg (fun t -> float_of_int (snd t.extra)));
        ("interp.instrument_s", total "interp.instrument");
        ("jit.order_s", total "jit.order");
        ("core.encode_s", total "core.encode");
        ("core.package_bytes", avg (fun t -> float_of_int (String.length (fst t.extra))));
        ("core.decode_s", total "core.decode");
        ("analysis.inline_tree_s", total "analysis.inline_tree")
      ]
      @ shared
      @ gc_metrics ~ops:n (List.map (fun o -> o.sample) ops)
      @ machine
    in
    result (n - List.length traced) layer
  end

(* ---------------------------------------------------------- churn-boot -- *)

(* The churn bench's app: enough workers that a 0.2 churn rate touches
   dozens of declarations. *)
let churn_spec = { Workload.App_spec.tiny with n_workers = 120; n_endpoints = 8 }

let churn_boot cfg =
  let spec, n_seed, n_health, n_builds, warm, measure =
    match cfg.size with
    | Full -> (churn_spec, 400, 50, 8, 60, 200)
    | Smoke -> (smoke_spec, 100, 10, 1, 10, 40)
  in
  (* Build 0 is seeded once; the ops boot churned builds 1..n_builds in
     turn, whole cycles only.  The package and the builds come from fixed
     seeds and the run's seed drives the health traffic and boot draws:
     Ext-TSP's cost follows the exact profile weights, so a seed-derived
     package or build set would make every run lay out different work (boot
     time varies 2x between builds and +-15% between profiles). *)
  let setup () =
    let app0 = Workload.Codegen.generate spec in
    let seeded =
      JS.Seeder.run app0.repo { options with validate_packages = false }
        ~profile_traffic:(drive app0 ~seed:1 ~n:n_seed)
        ~optimized_traffic:(drive app0 ~seed:2 ~n:n_seed)
        ~region:0 ~bucket:0 ~seeder_id:0 ()
    in
    match seeded with
    | Error msg -> failwith ("churn-boot set-up: seeder failed: " ^ msg)
    | Ok o ->
      let t0 = now () in
      let builds =
        Array.init n_builds (fun j ->
            fst (Workload.Churn.generate { Workload.Churn.seed = j + 1; rate = 0.2 } spec))
      in
      (o, builds, (now () -. t0) /. float_of_int n_builds)
  in
  let (seeded, builds, churn_s), setup_s, again = timed_setup cfg ~reps:2 ~between:1 setup in
  let bytes = seeded.bytes and meta = seeded.package.meta in
  let base i = cfg.seed + i in
  let build i = builds.(i mod n_builds) in
  let health i = drive (build i) ~seed:(stream (base i) 4) ~n:n_health in
  let product i =
    Gc.full_major ();
    let b = build i in
    let tel = Js_telemetry.create () in
    let boot, sample =
      timed (fun () ->
          let dist = publish b.repo bytes meta in
          JS.Consumer.boot_dist ~telemetry:tel b.repo options dist (Rng.create (stream (base i) 6))
            ~region:0 ~bucket:0 ~health_traffic:(health i)
            ~fallback_traffic:(drive b ~seed:(stream (base i) 5) ~n:n_seed) ())
    in
    match boot with
    | Jump_started vm when Js_telemetry.counter tel "consumer.salvages" = 1 ->
      {
        sample;
        phases = (0., sample.secs);
        bytes_md5 = md5 bytes;
        placement = placement_md5 vm.compiled;
        replayed = Some (replay vm b ~seed:(stream (base i) 7) ~warm ~measure);
      }
    | Jump_started _ | Fell_back _ -> failed_op sample (0., sample.secs)
  in
  let budget = if cfg.traced then cfg.seconds /. 2. else cfg.seconds in
  let product, peak = with_peak_after n_builds product in
  (* set-up samples start after the first cycle, where [peak] is read *)
  let between i = if i >= n_builds then again () in
  let ops = run_ops ~cycle:n_builds ~between ~seconds:budget ~min_ops:n_builds product in
  let n = List.length ops in
  let op_s = Array.of_list (List.map (fun o -> o.sample.secs) ops) in
  let sim_slowdown, machine, digests = exact_outputs ~first:n_builds ops in
  let info =
    [ ("op_seeds", String.concat "," (List.init n (fun i -> string_of_int (base i))));
      ("churn_seeds", String.concat "," (List.init n_builds (fun j -> string_of_int (j + 1))))
    ]
    @ digests
  in
  let result failed layer =
    {
      setup_s = Array.of_list !setup_s;
      op_s;
      attempted = n;
      failed;
      sim_slowdown;
      peak_heap_mb = !peak;
      layer;
      info;
    }
  in
  if not cfg.traced then result (n - List.length (ok_ops ops)) []
  else begin
    (* the same boots again, replayed under spans; each must take the
       salvage path and reproduce the product's code placement *)
    let traced =
      trace_ops ops
        ~rerun:(fun i ->
          let b = build i in
          let dist = publish b.repo bytes meta in
          match
            T.span "boot" (fun () ->
                replay_boot b.repo dist (Rng.create (stream (base i) 6)) ~health:(health i))
          with
          | Ok (c, Some stats) -> Ok (c, stats)
          | Ok (_, None) -> Error "not salvaged"
          | Error _ as e -> e)
        ~reproduces:(fun o c _ -> placement_md5 c.vm.compiled = o.placement)
    in
    let shared, total, _, avg = boot_layers traced in
    let stat f = avg (fun t -> float_of_int (f t.extra)) in
    let layer =
      [ ("boot.total_s", Stats.median op_s);
        ("workload.churn_s", churn_s);
        ("core.salvage_s", total "core.salvage");
        ("profile.funcs_matched", stat (fun s -> s.funcs_matched));
        ("profile.blocks_matched", stat (fun s -> s.blocks_matched));
        ("profile.counters_transferred", stat (fun s -> s.counters_transferred));
        ("profile.match_mass_frac", avg (fun t -> Jit_profile.Stale_match.quality t.extra));
        ("core.package_bytes", float_of_int (String.length bytes))
      ]
      @ shared
      @ gc_metrics ~ops:n (List.map (fun o -> o.sample) ops)
      @ machine
    in
    result (n - List.length traced) layer
  end

(* --------------------------------------------------------------- serve -- *)

let serve cfg =
  let spec, n_profile, n_ref, refresh, warm, measure, min_reqs =
    match cfg.size with
    | Full -> (Workload.App_spec.default, 600, 500, 2000, 120, 3000, 2000)
    | Smoke -> (smoke_spec, 60, 100, 100, 10, 100, 300)
  in
  (* one seeded, jump-started consumer *)
  let setup () =
    let app = Workload.Codegen.generate spec in
    let seeded =
      JS.Seeder.run app.repo { options with validate_packages = false }
        ~profile_traffic:(drive app ~seed:(stream cfg.seed 1) ~n:n_profile)
        ~optimized_traffic:(drive app ~seed:(stream cfg.seed 2) ~n:n_profile)
        ~region:0 ~bucket:0 ~seeder_id:0 ()
    in
    match seeded with
    | Error msg -> failwith ("serve set-up: seeder failed: " ^ msg)
    | Ok o -> (
      match JS.Consumer.boot_with_package app.repo options o.package with
      | Error msg -> failwith ("serve set-up: boot failed: " ^ msg)
      | Ok vm -> (app, o.bytes, vm))
  in
  let (app, bytes, vm), setup_s, _ = timed_setup cfg ~reps:2 setup in
  let repo = app.repo in
  let mix = Workload.Request.mix app ~region:0 ~bucket:0 in
  let invoke engine req =
    match Workload.Request.invoke engine app req with
    | v -> Ok (Hhbc.Value.to_string v)
    | exception Interp.Engine.Runtime_error msg -> Error msg
  in
  (* Phase (a): requests on serving engines, each timed; a fresh engine
     every [refresh] requests stays inside the default fuel.  One engine and
     its requests make one "op" span.  The first [n_ref] requests are
     checked, result and steps, against the reference interpreter.  Runs
     [count] requests, or until [budget] seconds. *)
  let serve_requests ~budget ~count =
    let rng = Rng.create (stream cfg.seed 3) in
    let reference =
      Interp.Engine.create ~typed:false ~inline_cache:false repo
        (Mh_runtime.Heap.create repo vm.layouts)
    in
    let creates = ref [] and lat = ref [] in
    let failed = ref 0 and steps = ref 0 and r = ref 0 in
    let t_start = now () in
    let more () =
      match count with Some c -> !r < c | None -> !r < min_reqs || now () -. t_start < budget
    in
    let request e =
      let req = Workload.Request.sample rng mix in
      T.set_op !r;
      let s0 = Interp.Engine.steps e in
      let t0 = now () in
      let res = T.span "interp.request" (fun () -> invoke e req) in
      lat := (now () -. t0) :: !lat;
      let req_steps = Interp.Engine.steps e - s0 in
      steps := !steps + req_steps;
      (match res with
      | Error _ -> incr failed
      | Ok _ when !r < n_ref ->
        let ref0 = Interp.Engine.steps reference in
        let expected = T.span "interp.reference" (fun () -> invoke reference req) in
        if expected <> res || Interp.Engine.steps reference - ref0 <> req_steps then incr failed
      | Ok _ -> ());
      incr r
    in
    while more () do
      T.set_op !r;
      T.span "op" (fun () ->
          let t0 = now () in
          let e = T.span "interp.engine_create" (fun () -> JS.Consumer.serving_engine vm ()) in
          creates := (now () -. t0) :: !creates;
          let stop = !r + refresh in
          while !r < stop && more () do
            request e
          done)
    done;
    T.set_op (-1);
    (Array.of_list (List.rev !lat), !failed, mean_of !creates, !steps)
  in
  (* Phase (b): after [warm] requests, [measure] requests replayed through
     the trace adapter into the machine model; the replay must execute
     exactly the steps plain serving does. *)
  let phase_b target = replay ~target vm app ~seed:(stream cfg.seed 4) ~warm ~measure in
  (* both phases share the measurement window; phase (a) gets what phase
     (b) leaves *)
  let budget = if cfg.traced then cfg.seconds /. 2. else cfg.seconds in
  let t0 = now () in
  let plain = phase_b Plain in
  let machine = phase_b Machine in
  let failed_b = if plain.steps = machine.steps then 0 else measure in
  let peak_heap_mb = heap_mb () in
  let (lat, failed_a, engine_create, steps), block =
    timed (fun () -> serve_requests ~budget:(budget -. (now () -. t0)) ~count:None)
  in
  let n = Array.length lat in
  let gc = gc_metrics ~ops:n [ block ] in
  let info =
    [ ("requests", string_of_int n);
      ("request_seed", string_of_int (stream cfg.seed 3));
      ("replay_seed", string_of_int (stream cfg.seed 4));
      ("package_md5", md5 bytes);
      ("placement_md5", placement_md5 vm.compiled)
    ]
  in
  let result failed layer =
    {
      setup_s = Array.of_list !setup_s;
      op_s = lat;
      attempted = n + measure;
      failed;
      sim_slowdown = slowdown machine;
      peak_heap_mb;
      layer;
      info;
    }
  in
  if not cfg.traced then result (failed_a + failed_b) []
  else begin
    T.start ();
    let traced_lat, failed_t, _, _ = serve_requests ~budget ~count:(Some n) in
    T.set_op n;
    let calls = ref 0 in
    let plain_t, null_t, machine_t =
      T.span "op" (fun () ->
          let plain_t = T.span "replay.plain" (fun () -> phase_b Plain) in
          let null_t = T.span "replay.null_sink" (fun () -> phase_b (Sink (counting_sink calls))) in
          (plain_t, null_t, T.span "replay.machine" (fun () -> phase_b Machine)))
    in
    T.stop ();
    let failed_b = failed_b + if null_t.steps = plain_t.steps then 0 else measure in
    let _, _, unattributed = span_metrics ~n_ops:n in
    let busy = Array.fold_left ( +. ) 0. lat in
    let us p = Stats.percentile lat p *. 1e6 in
    let per_req x = x /. float_of_int measure in
    let layer =
      [ ("interp.engine_create_s", engine_create);
        ("interp.req_per_s", float_of_int n /. busy);
        ("interp.req_p50_us", us 50.);
        ("interp.req_p90_us", us 90.);
        ("interp.req_p99_us", us 99.);
        ("interp.steps_per_s", float_of_int steps /. busy);
        ("interp.steps_per_req", float_of_int steps /. float_of_int n);
        ("jit.trace_adapter_s", per_req (null_t.replay_s -. plain_t.replay_s));
        ("machine.self_s", per_req (machine_t.replay_s -. null_t.replay_s));
        ("machine.calls", per_req (float_of_int !calls));
        ("core.package_bytes", float_of_int (String.length bytes));
        ("trace.unattributed_share", unattributed);
        ( "trace.overhead_s",
          (Array.fold_left ( +. ) 0. traced_lat -. busy) /. float_of_int (max 1 n) )
      ]
      @ gc @ code_bytes vm.compiled @ machine_metrics machine
    in
    result (failed_a + failed_b + failed_t) layer
  end

(* ---------------------------------------------------------------- push -- *)

(* The fleet app and server model of the push_sim CLI. *)
let push_app_params =
  { Workload.Macro_app.default_params with
    Workload.Macro_app.n_funcs = 6_000;
    core_funcs = 600;
    instrs_per_request = 30.0e6
  }

let push_server =
  { Cluster.Server.default_config with
    Cluster.Server.profile_request_target = 600;
    init_seconds_sequential = 30.;
    init_seconds_parallel = 12.;
    traffic_ramp_seconds = 90.;
    cold_decay_seconds = 40.
  }

(* 3 regions; pushes start at [push_at], [stagger] apart; spillover on;
   region 2 is lost at [lose_at]. *)
let push_config size =
  let servers, duration, push_at, stagger, lose_at =
    match size with Full -> (32, 900., 120., 120., 400.) | Smoke -> (8, 300., 60., 60., 150.)
  in
  let fleet =
    { Cluster.Fleet.default_config with
      Cluster.Fleet.n_servers = servers;
      n_buckets = 4;
      seeders_per_bucket = 3;
      validation_catch_rate = 0.95;
      server = push_server
    }
  in
  let base =
    { Js_sim.Region.default_config with
      Js_sim.Region.fleet;
      arrival =
        { Js_sim.Arrival.base_rps = float_of_int servers *. 50. *. 0.7;
          diurnal_amplitude = 0.;
          diurnal_period = 3600.;
          phase = 0.
        };
      push_at;
      duration
    }
  in
  { Js_sim.Region.default_global_config with
    Js_sim.Region.base;
    n_regions = 3;
    push_stagger = stagger;
    spillover = true;
    epoch = 15.;
    disasters = [ Js_sim.Region.Region_loss { region = 2; at = lose_at } ]
  }

let push cfg =
  let params =
    match cfg.size with
    | Full -> push_app_params
    | Smoke -> { push_app_params with n_funcs = 600; core_funcs = 60 }
  in
  let gcfg = push_config cfg.size in
  let app, setup_s, again =
    timed_setup cfg ~reps:4 ~between:4 (fun () -> Workload.Macro_app.generate params)
  in
  let digest gs = md5 (Js_sim.Region.global_digest gs) in
  let crashed (gs : Js_sim.Region.global_stats) =
    Array.exists (fun (r : Js_sim.Region.stats) -> r.crashes > 0) gs.g_regions
  in
  (* every rep uses the run's seed, so the reps must agree exactly; only the
     first rep's stats are kept *)
  let first = ref None in
  let rep _ =
    Gc.full_major ();
    let gs, sample = timed (fun () -> Js_sim.Region.run_global ~mode:`Epoch gcfg app ~seed:cfg.seed) in
    if Option.is_none !first then first := Some gs;
    (digest gs, crashed gs, sample)
  in
  let budget = if cfg.traced then cfg.seconds /. 2. else cfg.seconds in
  let rep, peak = with_peak_after 1 rep in
  let reps = run_ops ~between:(fun _ -> again ()) ~seconds:budget ~min_ops:2 rep in
  let gs = Option.get !first in
  let d0 = digest gs in
  let regions = Array.to_list gs.g_regions in
  let sum f = List.fold_left (fun a (r : Js_sim.Region.stats) -> a + f r) 0 regions in
  let fsum_r f = List.fold_left (fun a (r : Js_sim.Region.stats) -> a +. f r) 0. regions in
  let failed = List.length (List.filter (fun (d, crash, _) -> d <> d0 || crash) reps) in
  let ideal = fsum_r (fun r -> r.fleet_warm_rps *. gcfg.base.duration) in
  let loss = fsum_r (fun r -> r.capacity_loss_integral) in
  let samples = List.map (fun (_, _, s) -> s) reps in
  let op_s = Array.of_list (List.map (fun s -> s.secs) samples) in
  let gc = gc_metrics ~ops:(List.length reps) samples in
  let words = (List.hd samples).words in
  let info = [ ("reps", string_of_int (List.length reps)); ("global_digest_md5", d0) ] in
  let result failed layer =
    {
      setup_s = Array.of_list !setup_s;
      op_s;
      attempted = List.length reps;
      failed;
      sim_slowdown = ideal /. (ideal -. loss);
      peak_heap_mb = !peak;
      layer;
      info;
    }
  in
  if not cfg.traced then result failed []
  else begin
    T.start ();
    T.set_op 0;
    let t0 = now () in
    let traced =
      T.span "op" (fun () ->
          let tel = Js_telemetry.create () in
          T.span "sim.run" (fun () ->
              Js_sim.Region.run_global ~telemetry:tel ~mode:`Epoch gcfg app ~seed:cfg.seed))
    in
    let traced_s = now () -. t0 in
    T.span "sim.curve_build" (fun () ->
        let cache = Js_sim.Warmup_curve.create_cache ~horizon:gcfg.base.curve_horizon push_server app in
        ignore (Js_sim.Warmup_curve.get cache Cluster.Server.No_jumpstart));
    T.stop ();
    let total, _, unattributed = span_metrics ~n_ops:1 in
    let wall = Stats.median op_s in
    let events = float_of_int gs.g_events in
    let ttfc =
      List.fold_left
        (fun a (r : Js_sim.Region.stats) -> if r.lost then a else Float.max a r.time_to_full_capacity)
        0. regions
    in
    let layer =
      [ ("sim.wall_s_per_sim_hour", wall /. (gcfg.base.duration /. 3600.));
        ("sim.events", events);
        ("sim.events_per_s", events /. wall);
        ("sim.epochs", float_of_int gs.g_epochs);
        ("sim.spilled", float_of_int gs.g_spilled);
        ("sim.minor_words_per_event", words /. events);
        ("sim.curve_build_s", total "sim.curve_build");
        ("sim.arrived", float_of_int (sum (fun r -> r.arrived)));
        ("sim.completed", float_of_int (sum (fun r -> r.completed)));
        ( "sim.shed",
          float_of_int
            (sum (fun r -> r.shed_queue_full + r.shed_timeout + r.shed_no_server + r.shed_drain)) );
        ("sim.capacity_loss", loss);
        ("sim.ttfc_s", ttfc);
        ("sim.push_p99_s", Js_util.Stats.Quantile.p99 gs.g_latency_push);
        ("cluster.jump_started", float_of_int (sum (fun r -> r.jump_started)));
        ("cluster.fallbacks", float_of_int (sum (fun r -> r.fallbacks)));
        ("cluster.fetch_attempts", float_of_int gs.g_net.attempts);
        ("trace.unattributed_share", unattributed);
        ("trace.overhead_s", traced_s -. wall)
      ]
      @ gc
    in
    result (failed + if digest traced <> d0 || crashed traced then 1 else 0) layer
  end

let all = [ ("seed-boot", seed_boot); ("churn-boot", churn_boot); ("serve", serve); ("push", push) ]
