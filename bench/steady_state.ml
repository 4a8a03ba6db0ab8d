module JS = Jumpstart

type variant = { name : string; options : JS.Options.t; use_jumpstart : bool }

let fig5_variants =
  [ { name = "no-jumpstart"; options = JS.Options.disabled; use_jumpstart = false };
    { name = "jumpstart"; options = JS.Options.default; use_jumpstart = true }
  ]

let fig6_variants =
  [ { name = "jumpstart-no-opts"; options = JS.Options.no_steady_state_opts; use_jumpstart = true };
    { name = "no-jumpstart"; options = JS.Options.disabled; use_jumpstart = false };
    { name = "bb-layout";
      options = { JS.Options.no_steady_state_opts with JS.Options.bb_layout_opt = true };
      use_jumpstart = true
    };
    { name = "func-sorting";
      options = { JS.Options.no_steady_state_opts with JS.Options.func_sort_opt = true };
      use_jumpstart = true
    };
    { name = "prop-reorder";
      options = { JS.Options.no_steady_state_opts with JS.Options.prop_reorder_opt = true };
      use_jumpstart = true
    }
  ]

type measurement = {
  m_name : string;
  snapshot : Machine.Hierarchy.snapshot;
  cycles_per_request : float;
  interp_steps : int;
}

let speedup ~baseline m = baseline.cycles_per_request /. m.cycles_per_request

type metric = Branch | L1I | ITLB | L1D | DTLB | LLC

let metric_name = function
  | Branch -> "Branch MR"
  | L1I -> "I-Cache MR"
  | ITLB -> "I-TLB MR"
  | L1D -> "D-Cache MR"
  | DTLB -> "D-TLB MR"
  | LLC -> "LLC MR"

let miss_rate_of m metric =
  let s = m.snapshot in
  match metric with
  | Branch -> Machine.Branch.mispredict_rate s.Machine.Hierarchy.branch_s
  | L1I -> Machine.Cache.miss_rate s.Machine.Hierarchy.l1i_s
  | ITLB -> Machine.Cache.miss_rate s.Machine.Hierarchy.itlb_s
  | L1D -> Machine.Cache.miss_rate s.Machine.Hierarchy.l1d_s
  | DTLB -> Machine.Cache.miss_rate s.Machine.Hierarchy.dtlb_s
  | LLC -> Machine.Cache.miss_rate s.Machine.Hierarchy.llc_s

let miss_reduction ~baseline ~metric m =
  let b = miss_rate_of baseline metric in
  if b = 0. then 0. else 1. -. (miss_rate_of m metric /. b)

type config = {
  spec : Workload.App_spec.t;
  seed : int;
  profile_requests : int;
  optimized_requests : int;
  warm_requests : int;
  measure_requests : int;
}

let default_config =
  {
    spec = Workload.App_spec.default;
    seed = 11;
    profile_requests = 600;
    optimized_requests = 600;
    warm_requests = 120;
    measure_requests = 400;
  }

let drive app mix ~seed ~n engine =
  let rng = Js_util.Rng.create seed in
  for _ = 1 to n do
    ignore (Workload.Request.invoke engine app (Workload.Request.sample rng mix))
  done

let replay config app mix (compiled : Jit.Compiler.compiled) engine_of =
  let hier = Machine.Hierarchy.create Machine.Hierarchy.default_config in
  let sink =
    {
      Jit.Trace_adapter.fetch = (fun ~addr ~size -> Machine.Hierarchy.fetch hier ~addr ~size);
      branch = (fun ~pc ~target ~taken -> Machine.Hierarchy.branch hier ~pc ~target ~taken);
      load = (fun ~addr -> Machine.Hierarchy.load hier ~addr);
      store = (fun ~addr -> Machine.Hierarchy.store hier ~addr);
    }
  in
  let probes =
    Jit.Context.probes app.Workload.Codegen.repo
      ~lookup:(Jit.Compiler.lookup compiled)
      (Jit.Trace_adapter.handler ~cache:compiled.Jit.Compiler.cache sink)
  in
  let engine = engine_of probes in
  (* warm the caches, then measure a fixed request sequence *)
  drive app mix ~seed:(config.seed + 3) ~n:config.warm_requests engine;
  Machine.Hierarchy.reset_stats hier;
  let steps_before = Interp.Engine.steps engine in
  drive app mix ~seed:(config.seed + 4) ~n:config.measure_requests engine;
  (Machine.Hierarchy.snapshot hier, Interp.Engine.steps engine - steps_before)

let run config variants =
  let app = Workload.Codegen.generate config.spec in
  let repo = app.Workload.Codegen.repo in
  let mix = Workload.Request.mix app ~region:0 ~bucket:0 in
  let drive seed n engine = drive app mix ~seed ~n engine in
  (* one seeder feeds every Jump-Start variant *)
  let seeder_options = { JS.Options.default with JS.Options.validate_packages = false } in
  let package =
    match
      JS.Seeder.run repo seeder_options
        ~profile_traffic:(drive (config.seed + 1) config.profile_requests)
        ~optimized_traffic:(drive (config.seed + 2) config.optimized_requests)
        ~region:0 ~bucket:0 ~seeder_id:0 ()
    with
    | Ok outcome -> outcome.JS.Seeder.package
    | Error msg -> failwith ("Steady_state.run: seeder failed: " ^ msg)
  in
  List.map
    (fun variant ->
      let vm =
        if variant.use_jumpstart then
          match JS.Consumer.boot_with_package repo variant.options package with
          | Ok vm -> vm
          | Error msg -> failwith ("Steady_state.run: consumer boot failed: " ^ msg)
        else
          JS.Consumer.boot_without_jumpstart repo variant.options
            ~traffic:(drive (config.seed + 1) config.profile_requests)
      in
      let snapshot, interp_steps =
        replay config app mix vm.JS.Consumer.compiled (fun probes ->
            JS.Consumer.serving_engine vm ~probes ())
      in
      {
        m_name = variant.name;
        snapshot;
        cycles_per_request =
          snapshot.Machine.Hierarchy.cycles /. float_of_int config.measure_requests;
        interp_steps;
      })
    variants
