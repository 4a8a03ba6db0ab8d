type traffic = Interp.Engine.t -> unit

type vm = {
  repo : Hhbc.Repo.t;
  options : Options.t;
  package : Package.t option;
  counters : Jit_profile.Counters.t;
  layouts : Mh_runtime.Class_layout.table;
  compiled : Jit.Compiler.compiled;
}

let compile_config (options : Options.t) =
  {
    Jit.Compiler.default_config with
    Jit.Compiler.use_measured_bb_weights = options.Options.bb_layout_opt;
    (* the shipped order is passed explicitly; local recomputation (when
       func_sort_opt is off) uses the tier-1 graph like pre-Jump-Start HHVM *)
    func_order = Jit.Compiler.C3_tier1;
    mode = Vasm.Lower.Optimized;
  }

let layouts_for repo (options : Options.t) counters =
  let hotness cid nid = Jit_profile.Counters.prop_hotness counters cid nid in
  Mh_runtime.Class_layout.build repo ~reorder:options.Options.prop_reorder_opt ~hotness

let serving_engine vm ?probes () =
  let heap = Mh_runtime.Heap.create vm.repo vm.layouts in
  Interp.Engine.create ?probes vm.repo heap

let boot_with_package repo options ?jit_bug (package : Package.t) =
  match jit_bug with
  | Some bug when bug package -> Error "JIT compiler crash triggered by profile data"
  | Some _ | None ->
    let counters = package.Package.counters in
    let layouts = layouts_for repo options counters in
    let config = compile_config options in
    let vfuncs = Jit.Compiler.lower_all repo counters config in
    let measured = if options.Options.bb_layout_opt then Some package.Package.vasm else None in
    let order =
      if options.Options.func_sort_opt then Some package.Package.func_order else None
    in
    let compiled = Jit.Compiler.finish repo counters config ~measured ?order vfuncs in
    Ok { repo; options; package = Some package; counters; layouts; compiled }

let boot_without_jumpstart repo options ~traffic =
  let counters = Jit_profile.Counters.create repo in
  let layouts = Mh_runtime.Class_layout.build repo ~reorder:false ~hotness:(fun _ _ -> 0) in
  let heap = Mh_runtime.Heap.create repo layouts in
  let engine = Interp.Engine.create ~probes:(Jit_profile.Collector.probes counters) repo heap in
  traffic engine;
  let config = Jit.Compiler.no_jumpstart_config in
  let compiled = Jit.Compiler.compile repo counters config ~measured:None in
  { repo; options; package = None; counters; layouts; compiled }

type outcome = Jump_started of vm | Fell_back of vm * string

(* Returns the interpreter step count alongside the verdict so the caller can
   charge the simulated clock for the work actually performed. *)
let health_check vm traffic =
  match traffic with
  | None -> (0, Ok ())
  | Some run ->
    let engine = serving_engine vm () in
    let verdict =
      try
        run engine;
        Ok ()
      with
      | Interp.Engine.Runtime_error msg -> Error ("unhealthy: " ^ msg)
      | Failure msg -> Error ("unhealthy: " ^ msg)
    in
    (Interp.Engine.steps engine, verdict)

let boot_dist ?telemetry repo (options : Options.t) dist rng ~region ~bucket ?jit_bug
    ?health_traffic ~fallback_traffic () =
  let tel f =
    match telemetry with
    | Some t -> f t
    | None -> ()
  in
  let timed name ~cost f =
    match telemetry with
    | Some t -> Js_telemetry.timed t name ~cost f
    | None -> f ()
  in
  let fall_back reason =
    tel (fun t ->
        Js_telemetry.incr t "consumer.fallbacks";
        Js_telemetry.record t (Js_telemetry.Fallback { source = "consumer"; reason }));
    Fell_back (boot_without_jumpstart repo options ~traffic:fallback_traffic, reason)
  in
  let note_attempt k outcome =
    tel (fun t ->
        Js_telemetry.incr t "consumer.boot_attempts";
        Js_telemetry.record t
          (Js_telemetry.Boot_attempt { source = "consumer"; attempt = k + 1; outcome }))
  in
  if not options.Options.enabled then fall_back "Jump-Start disabled by configuration"
  else begin
    let rec attempt k last_error =
      if k >= options.Options.max_boot_attempts then
        fall_back (Printf.sprintf "exhausted %d boot attempts (%s)" k last_error)
      else
        let fail stage msg =
          tel (fun t ->
              Js_telemetry.incr t (Printf.sprintf "consumer.%s_failures" stage);
              Js_telemetry.record t
                (Js_telemetry.Validation_failed
                   { stage = "consumer." ^ stage; reason = msg }));
          note_attempt k (stage ^ "_failed");
          attempt (k + 1) msg
        in
        (* Shared continuation once package bytes decoded (exact or salvaged):
           verify -> coverage -> compile -> health check.  A salvaged package
           goes through the very same gates — the transfer drops infeasible
           counters precisely so it can. *)
        let proceed package =
          (* Profile-consistency verification (§VI-A): the package decoded,
             but do its counters actually describe this repo's CFGs? *)
          match
            timed "consumer.verify"
              ~cost:(fun _ -> float_of_int (Hhbc.Repo.n_funcs repo) *. 1e-7)
              (fun () -> Package_check.result repo package)
          with
          | Error msg ->
            tel (fun t -> Js_telemetry.incr t "verify.package_rejects");
            fail "verify" msg
          | Ok () -> (
            match Package.check_coverage package options with
            | Error msg -> fail "coverage" msg
            | Ok () -> (
              match
                timed "consumer.compile"
                  ~cost:(function
                    | Ok vm -> float_of_int vm.compiled.Jit.Compiler.n_translations *. 1e-4
                    | Error _ -> 0.)
                  (fun () -> boot_with_package repo options ?jit_bug package)
              with
              | Error msg -> fail "compile" msg
              | Ok vm -> (
                match
                  timed "consumer.health_check"
                    ~cost:(fun (steps, _) -> float_of_int steps *. 1e-8)
                    (fun () -> health_check vm health_traffic)
                with
                | _, Ok () ->
                  note_attempt k "jump_started";
                  tel (fun t -> Js_telemetry.incr t "consumer.jump_starts");
                  Jump_started vm
                | _, Error msg -> fail "health_check" msg)))
        in
        match Dist_store.fetch ?telemetry dist rng ~region ~bucket with
        | Dist_store.No_package -> fall_back "no profile package available"
        | Dist_store.Delivered { bytes; _ } -> (
          match
            timed "consumer.decode"
              ~cost:(fun _ -> float_of_int (String.length bytes) /. 25.0e6)
              (fun () -> Package.of_bytes repo bytes)
          with
          | Error msg -> fail "decode" msg
          | Ok package -> proceed package)
        | Dist_store.Rejected { reason = gate_reason; bytes; _ }
          when options.Options.salvage_stale -> (
          (* Stale-profile salvage (§VI-B): the gate refused the package
             because it was profiled on a different build — match it against
             the live repo instead of discarding it.  Costed like a decode
             plus a per-function matching pass. *)
          match
            timed "consumer.salvage"
              ~cost:(fun _ ->
                (float_of_int (String.length bytes) /. 25.0e6)
                +. (float_of_int (Hhbc.Repo.n_funcs repo) *. 2e-7))
              (fun () -> Package.of_bytes_stale repo bytes)
          with
          | Error msg -> fail "salvage" (gate_reason ^ "; salvage failed: " ^ msg)
          | Ok (package, stats) ->
            let q = Jit_profile.Stale_match.quality stats in
            if stats.Jit_profile.Stale_match.funcs_matched = 0
               || q < options.Options.salvage_min_match
            then
              fail "salvage"
                (Format.asprintf "match quality %.2f below threshold %.2f (%a)" q
                   options.Options.salvage_min_match Jit_profile.Stale_match.pp_stats stats)
            else begin
              tel (fun t ->
                  Js_telemetry.incr t "consumer.salvages";
                  Js_telemetry.incr t ~by:stats.Jit_profile.Stale_match.funcs_matched
                    "match.funcs_matched";
                  Js_telemetry.incr t ~by:stats.Jit_profile.Stale_match.blocks_matched
                    "match.blocks_matched";
                  Js_telemetry.incr t ~by:stats.Jit_profile.Stale_match.counters_transferred
                    "match.counters_transferred");
              proceed package
            end)
        | Dist_store.Rejected { reason; _ } -> fail "fetch" reason
    in
    attempt 0 "no attempts made"
  end
