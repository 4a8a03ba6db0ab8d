(* The full Jump-Start lifecycle on a synthetic web application:

     dune exec examples/seeder_consumer.exe

   1. seeders profile production-like traffic and publish packages;
   2. a consumer picks a random package and boots jump-started;
   3. reliability: a corrupted package and an injected JIT bug are both
      survived via retry + no-Jump-Start fallback (paper §VI). *)

module JS = Jumpstart
module Req = Workload.Request

let () =
  let app = Workload.Codegen.generate Workload.App_spec.tiny in
  let repo = app.Workload.Codegen.repo in
  Format.printf "application: %a@." Hhbc.Repo.pp_summary repo;
  let mix = Req.mix app ~region:0 ~bucket:0 in
  let traffic seed n engine =
    let rng = Js_util.Rng.create seed in
    for _ = 1 to n do
      ignore (Req.invoke engine app (Req.sample rng mix))
    done
  in
  let options = JS.Options.default in
  let store = JS.Store.create () in
  (* one sink across the whole lifecycle; dumped at the end *)
  let tel = Js_telemetry.create () in

  print_endline "\n== C2 phase: three seeders collect, validate and publish ==";
  for seeder_id = 0 to 2 do
    match
      JS.Seeder.run_and_publish ~telemetry:tel repo options store
        ~profile_traffic:(traffic (10 + seeder_id) 250)
        ~optimized_traffic:(traffic (20 + seeder_id) 250)
        ~validation_traffic:(traffic (30 + seeder_id) 40)
        ~region:0 ~bucket:0 ~seeder_id ()
    with
    | Ok outcome ->
      Format.printf "  seeder %d published %d bytes: %a@." seeder_id
        (String.length outcome.JS.Seeder.bytes)
        JS.Package.pp_meta outcome.JS.Seeder.package.JS.Package.meta
    | Error msg -> Printf.printf "  seeder %d rejected: %s\n" seeder_id msg
  done;
  Printf.printf "store now holds %d packages for (region 0, bucket 0)\n"
    (JS.Store.count store ~region:0 ~bucket:0);

  print_endline "\n== C3 phase: a consumer boots jump-started ==";
  let rng = Js_util.Rng.create 42 in
  (* a perfect network: each fetch is one random pick from the store *)
  let dist = JS.Dist_store.create store in
  (match
     JS.Consumer.boot_dist ~telemetry:tel repo options dist rng ~region:0 ~bucket:0
       ~health_traffic:(traffic 40 30) ~fallback_traffic:(traffic 41 250) ()
   with
  | JS.Consumer.Jump_started vm ->
    Printf.printf "  jump-started with %d optimized translations (package from seeder %d)\n"
      vm.JS.Consumer.compiled.Jit.Compiler.n_translations
      (match vm.JS.Consumer.package with
      | Some p -> p.JS.Package.meta.JS.Package.seeder_id
      | None -> -1);
    let engine = JS.Consumer.serving_engine vm () in
    traffic 50 100 engine;
    Printf.printf "  served 100 requests (%d bytecode instructions)\n" (Interp.Engine.steps engine)
  | JS.Consumer.Fell_back (_, reason) -> Printf.printf "  unexpected fallback: %s\n" reason);

  print_endline "\n== reliability drill 1: all packages corrupted in distribution ==";
  let corrupted = JS.Store.create () in
  (match JS.Store.pick_random store rng ~region:0 ~bucket:0 with
  | Some (bytes, meta) ->
    JS.Store.publish corrupted ~region:0 ~bucket:0 bytes meta;
    ignore (JS.Store.corrupt_one corrupted rng ~region:0 ~bucket:0)
  | None -> ());
  (match
     JS.Consumer.boot_dist ~telemetry:tel repo options (JS.Dist_store.create corrupted) rng
       ~region:0 ~bucket:0 ~fallback_traffic:(traffic 60 250) ()
   with
  | JS.Consumer.Fell_back (vm, reason) ->
    Printf.printf "  CRC caught it; fell back safely (%s)\n" reason;
    Printf.printf "  fallback VM still compiled %d translations from its own profile\n"
      vm.JS.Consumer.compiled.Jit.Compiler.n_translations
  | JS.Consumer.Jump_started _ -> print_endline "  !! corrupted package accepted");

  print_endline "\n== reliability drill 2: a profile triggers a JIT compiler bug ==";
  let attempts = ref 0 in
  let jit_bug _ =
    incr attempts;
    true
  in
  (match
     JS.Consumer.boot_dist ~telemetry:tel repo options dist rng ~region:0 ~bucket:0 ~jit_bug
       ~fallback_traffic:(traffic 61 250) ()
   with
  | JS.Consumer.Fell_back (_, reason) ->
    Printf.printf "  crashed %d times on random packages, then: %s\n" !attempts reason
  | JS.Consumer.Jump_started _ -> print_endline "  !! bug did not fire");

  print_endline "\n== telemetry collected across the whole lifecycle ==";
  Format.printf "%a@." Js_telemetry.pp_text tel
