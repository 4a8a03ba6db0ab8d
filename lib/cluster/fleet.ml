module R = Js_util.Rng

type config = {
  n_servers : int;
  n_buckets : int;
  seeders_per_bucket : int;
  server : Server.config;
  validation_catch_rate : float;
  verifier_catch_rate : float;
  max_boot_attempts : int;
  fallback_enabled : bool;
  max_seeder_retries : int;
  dist : Dist_net.config;
}

let default_config =
  {
    n_servers = 200;
    n_buckets = 10;
    seeders_per_bucket = 3;
    server = Server.default_config;
    validation_catch_rate = 0.95;
    verifier_catch_rate = 0.0;
    max_boot_attempts = 3;
    fallback_enabled = true;
    max_seeder_retries = 4;
    dist = Dist_net.default_config;
  }

type seeding = {
  per_bucket : Server.package list array;
  published : int;
  rejected : int;
  seed_verifier_rejects : int;
  bad_published : int;
}

(* C2: run seeders, with fault injection and the §VI gates. *)
let run_seeders config app rng ~bad_package_rate ~thin_profile_rate =
  let published = Array.make config.n_buckets [] in
  let n_published = ref 0 and n_rejected = ref 0 and n_bad_published = ref 0 in
  let n_verifier_rejects = ref 0 in
  for bucket = 0 to config.n_buckets - 1 do
    let bucket_packages = ref [] in
    for s = 0 to config.seeders_per_bucket - 1 do
      (* each seeder retries until it publishes or gives up *)
      let rec attempt k =
        if k > config.max_seeder_retries then ()
        else begin
          let bad = R.bool rng bad_package_rate in
          let thin = R.bool rng thin_profile_rate in
          let quality = if thin then 0.4 else 1.0 in
          let pkg =
            Server.make_package config.server app ~quality ~bad
              ~coverage_target:config.server.Server.profile_request_target ()
          in
          (* §VI-B coverage gate: thin profiles are detectably small *)
          let rejected_by_coverage = quality < 0.6 in
          (* §VI-A.1 self-validation: bad packages are usually caught *)
          let rejected_by_validation = bad && R.bool rng config.validation_catch_rate in
          (* §VI-A static verifier: an independent consistency pass over the
             round-tripped package.  The rate check comes first so the
             default (0.0, verifier off) consumes no randomness and leaves
             every existing seeded simulation byte-identical. *)
          let rejected_by_verifier =
            config.verifier_catch_rate > 0. && bad && R.bool rng config.verifier_catch_rate
          in
          if rejected_by_coverage || rejected_by_validation || rejected_by_verifier then begin
            incr n_rejected;
            if rejected_by_verifier && not (rejected_by_coverage || rejected_by_validation) then
              incr n_verifier_rejects;
            attempt (k + 1)
          end
          else begin
            incr n_published;
            if bad then incr n_bad_published;
            bucket_packages := pkg :: !bucket_packages
          end
        end
      in
      ignore s;
      attempt 0
    done;
    (* store oldest-published first so the network's prepend order (and any
       direct pick) reproduces the historical per-bucket list exactly *)
    published.(bucket) <- List.rev !bucket_packages
  done;
  {
    per_bucket = published;
    published = !n_published;
    rejected = !n_rejected;
    seed_verifier_rejects = !n_verifier_rejects;
    bad_published = !n_bad_published;
  }

let forced_seeding config app ~bad_per_bucket =
  let n = config.seeders_per_bucket in
  let bad_n = min bad_per_bucket n in
  let published =
    (* reversed so the publish order (and the resulting replica lists) stay
       byte-identical to the historical hashtable-of-refs representation *)
    Array.init config.n_buckets (fun _ ->
        List.rev
          (List.init n (fun i ->
               Server.make_package config.server app ~bad:(i < bad_n)
                 ~coverage_target:config.server.Server.profile_request_target ())))
  in
  {
    per_bucket = published;
    published = config.n_buckets * n;
    rejected = 0;
    seed_verifier_rejects = 0;
    bad_published = config.n_buckets * bad_n;
  }
