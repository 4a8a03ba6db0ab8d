type outcome = {
  package : Package.t;
  bytes : string;
  profile_requests_steps : int;
}

let run ?telemetry repo (options : Options.t) ~profile_traffic ~optimized_traffic
    ?validation_traffic ?jit_bug ~region ~bucket ~seeder_id () =
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
  let reject counter stage msg =
    tel (fun t ->
        Js_telemetry.incr t counter;
        Js_telemetry.record t (Js_telemetry.Validation_failed { stage; reason = msg }))
  in
  (* Phase 1: serve requests, JIT profile code, collect tier-1 counters. *)
  let counters = Jit_profile.Counters.create repo in
  let layouts = Mh_runtime.Class_layout.build repo ~reorder:false ~hotness:(fun _ _ -> 0) in
  let heap = Mh_runtime.Heap.create repo layouts in
  let engine = Interp.Engine.create ~probes:(Jit_profile.Collector.probes counters) repo heap in
  let profile_steps =
    timed "seeder.profile"
      ~cost:(fun steps -> float_of_int steps *. 1e-8)
      (fun () ->
        profile_traffic engine;
        Interp.Engine.steps engine)
  in
  (* Phase 2: JIT instrumented optimized code. *)
  let config =
    { (Consumer.compile_config options) with Jit.Compiler.mode = Vasm.Lower.Instrumented }
  in
  let vfuncs =
    timed "seeder.lower"
      ~cost:(fun vfuncs -> float_of_int (List.length vfuncs) *. 1e-4)
      (fun () -> Jit.Compiler.lower_all repo counters config)
  in
  (* Phase 3: serve on instrumented optimized code; collect the Vasm-level
     profile and the tier-2 call graph. *)
  let measured = Jit.Vasm_profile.create () in
  let lookup fid = List.assoc_opt fid vfuncs in
  let probes = Jit.Context.probes repo ~lookup (Jit.Vasm_profile.handler measured) in
  let heap2 = Mh_runtime.Heap.create repo layouts in
  let engine2 = Interp.Engine.create ~probes repo heap2 in
  timed "seeder.instrument"
    ~cost:(fun () -> float_of_int (Interp.Engine.steps engine2) *. 1e-8)
    (fun () -> optimized_traffic engine2);
  (* Phase 4: compute the function order (intermediate JIT result). *)
  let order_config = { config with Jit.Compiler.func_order = Jit.Compiler.C3_tier2 } in
  let func_order =
    Jit.Compiler.function_order counters order_config ~measured:(Some measured) vfuncs
  in
  (* Phase 5: serialize. *)
  let profiled = Jit_profile.Counters.profiled_funcs counters in
  let package =
    {
      Package.meta =
        {
          Package.region;
          bucket;
          seeder_id;
          n_profiled_funcs = List.length profiled;
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
  let bytes =
    timed "seeder.serialize"
      ~cost:(fun bytes -> float_of_int (String.length bytes) /. 25.0e6)
      (fun () -> Package.to_bytes package)
  in
  let accept () =
    tel (fun t -> Js_telemetry.incr t "seeder.packages_built");
    Ok { package; bytes; profile_requests_steps = profile_steps }
  in
  (* Phase 6: coverage gate (§VI-B). *)
  match Package.check_coverage package options with
  | Error msg ->
    reject "seeder.coverage_rejects" "seeder.coverage_gate" msg;
    Error ("coverage gate: " ^ msg)
  | Ok () ->
    (* Phase 7: self-validation — restart in consumer mode on the freshly
       serialized bytes and require a healthy boot (§VI-A.1). *)
    if not options.Options.validate_packages then accept ()
    else begin
      let invalid msg =
        reject "seeder.validation_rejects" "seeder.validation" msg;
        Error ("validation: " ^ msg)
      in
      match Package.of_bytes repo bytes with
      | Error msg -> invalid ("round-trip failed: " ^ msg)
      | Ok reread -> (
        (* Static verification of the round-tripped package: the same
           consistency pass the consumer applies (§VI-A), run here so a bad
           package burns a seeder rebuild, not a fleet of boot retries. *)
        match Package_check.result repo reread with
        | Error msg ->
          tel (fun t -> Js_telemetry.incr t "verify.package_rejects");
          reject "seeder.verify_rejects" "seeder.verify" msg;
          Error ("verification: " ^ msg)
        | Ok () -> (
          match Consumer.boot_with_package repo options ?jit_bug reread with
          | Error msg -> invalid ("consumer boot failed: " ^ msg)
          | Ok vm -> (
            (* Inline trees in the compiled translations must only reference
               functions that exist and nest at real call sites. *)
            let tree_errors =
              Hashtbl.fold
                (fun _ vf acc ->
                  Js_analysis.Diag.errors (Js_analysis.Verify.check_inline_tree repo vf) @ acc)
                vm.Consumer.compiled.Jit.Compiler.vfuncs []
            in
            match tree_errors with
            | first :: _ ->
              let msg = Js_analysis.Diag.to_string first in
              tel (fun t -> Js_telemetry.incr t "verify.inline_tree_rejects");
              reject "seeder.verify_rejects" "seeder.verify" msg;
              Error ("verification: " ^ msg)
            | [] -> (
              match validation_traffic with
              | None -> accept ()
              | Some traffic -> (
                let check_engine = Consumer.serving_engine vm () in
                try
                  traffic check_engine;
                  accept ()
                with
                | Interp.Engine.Runtime_error msg -> invalid ("unhealthy: " ^ msg)
                | Failure msg -> invalid ("unhealthy: " ^ msg))))))
    end

let run_and_publish ?telemetry repo options store ~profile_traffic ~optimized_traffic
    ?validation_traffic ?jit_bug ~region ~bucket ~seeder_id () =
  match
    run ?telemetry repo options ~profile_traffic ~optimized_traffic ?validation_traffic
      ?jit_bug ~region ~bucket ~seeder_id ()
  with
  | Error _ as e -> e
  | Ok result ->
    Store.publish store ~region ~bucket result.bytes result.package.Package.meta;
    (match telemetry with
    | None -> ()
    | Some t ->
      Js_telemetry.incr t "seeder.published";
      Js_telemetry.record t
        (Js_telemetry.Seeder_published
           { region; bucket; seeder_id; bytes = String.length result.bytes }));
    Ok result
