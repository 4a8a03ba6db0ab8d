(* Every metric the benchmark prints, with its unit.  BENCHMARK.json
   declares the same names and units; the benchmark's test checks that the
   two agree. *)

(* What a user of the system sees, reported by untraced runs on every
   workload.  What an "op" is depends on the workload (see README.md). *)
let end_to_end =
  [ ("setup_s", "s") (* median over set-up repetitions *);
    ("op_ms", "ms") (* median wall time of one op *);
    ("peak_heap_mb", "MB") (* top of the major heap through set-up and the first op *);
    ("sim_slowdown", "x") (* modelled cost over its ideal; exact for a seed *)
  ]

(* Layer metrics, reported by traced runs.  Times and counts are per op
   unless the name says otherwise; a layer a workload does not exercise
   reads 0 there. *)
let per_layer =
  [ ("seed.total_s", "s");
    ("seed.self_s", "s");
    ("boot.total_s", "s");
    ("boot.self_s", "s");
    ("interp.profile_s", "s");
    ("interp.profile_steps", "count");
    ("interp.instrument_s", "s");
    ("interp.check_s", "s");
    ("interp.engine_create_s", "s");
    ("interp.req_per_s", "1/s");
    ("interp.req_p50_us", "us");
    ("interp.req_p90_us", "us");
    ("interp.req_p99_us", "us");
    ("interp.steps_per_s", "1/s");
    ("interp.steps_per_req", "count");
    ("jit.lower_s", "s");
    ("jit.translations", "count");
    ("jit.order_s", "s");
    ("jit.finish_s", "s");
    ("jit.hot_bytes", "bytes");
    ("jit.cold_bytes", "bytes");
    ("jit.trace_adapter_s", "s");
    ("layout.arrange_s", "s");
    ("layout.blocks", "count");
    ("layout.arrange_share", "share");
    ("runtime.class_layout_s", "s");
    ("core.encode_s", "s");
    ("core.package_bytes", "bytes");
    ("core.publish_s", "s");
    ("core.fetch_s", "s");
    ("core.decode_s", "s");
    ("core.salvage_s", "s");
    ("core.check_s", "s");
    ("analysis.inline_tree_s", "s");
    ("profile.funcs_matched", "count");
    ("profile.blocks_matched", "count");
    ("profile.counters_transferred", "count");
    ("profile.match_mass_frac", "share");
    ("workload.churn_s", "s");
    ("machine.self_s", "s");
    ("machine.calls", "count");
    ("machine.replay_req_per_s", "1/s");
    ("machine.cycles_per_req", "cycles");
    ("machine.l1i_mr", "share");
    ("machine.itlb_mr", "share");
    ("machine.l1d_mr", "share");
    ("machine.dtlb_mr", "share");
    ("machine.llc_mr", "share");
    ("machine.branch_mr", "share");
    ("sim.wall_s_per_sim_hour", "s");
    ("sim.events", "count");
    ("sim.events_per_s", "1/s");
    ("sim.epochs", "count");
    ("sim.spilled", "count");
    ("sim.minor_words_per_event", "words");
    ("sim.curve_build_s", "s");
    ("sim.arrived", "count");
    ("sim.completed", "count");
    ("sim.shed", "count");
    ("sim.capacity_loss", "req");
    ("sim.ttfc_s", "s");
    ("sim.push_p99_s", "s");
    ("cluster.jump_started", "count");
    ("cluster.fallbacks", "count");
    ("cluster.fetch_attempts", "count");
    ("gc.minor_mwords", "Mwords");
    ("gc.major_collections", "count");
    ("trace.overhead_s", "s");
    ("trace.unattributed_share", "share")
  ]
