module R = Js_util.Rng

type config = {
  n_servers : int;
  n_buckets : int;
  seeders_per_bucket : int;
  server : Server.config;
  validation_catch_rate : float;
  max_boot_attempts : int;
  fallback_enabled : bool;
  dist : Dist_net.config;
}

let default_config =
  {
    n_servers = 200;
    n_buckets = 10;
    seeders_per_bucket = 3;
    server = Server.default_config;
    validation_catch_rate = 0.95;
    max_boot_attempts = 3;
    fallback_enabled = true;
    dist = Dist_net.default_config;
  }

type seeding = {
  per_bucket : Server.package list array;
  published : int;
  rejected : int;
  bad_published : int;
}

(* a seeder whose package is rejected retries up to this many times *)
let max_seeder_retries = 4

(* C2: run seeders, with fault injection and the §VI gates. *)
let run_seeders config app rng ~bad_package_rate ~thin_profile_rate =
  let published = Array.make config.n_buckets [] in
  let n_published = ref 0 and n_rejected = ref 0 and n_bad_published = ref 0 in
  for bucket = 0 to config.n_buckets - 1 do
    let bucket_packages = ref [] in
    for s = 0 to config.seeders_per_bucket - 1 do
      (* each seeder retries until it publishes or gives up *)
      let rec attempt k =
        if k > max_seeder_retries then ()
        else begin
          let bad = R.bool rng bad_package_rate in
          let thin = R.bool rng thin_profile_rate in
          let quality = if thin then 0.4 else 1.0 in
          let pkg = Server.make_package config.server app ~quality ~bad () in
          (* §VI-B coverage gate: thin profiles are detectably small *)
          let rejected_by_coverage = quality < 0.6 in
          (* §VI-A.1 self-validation: bad packages are usually caught *)
          let rejected_by_validation = bad && R.bool rng config.validation_catch_rate in
          if rejected_by_coverage || rejected_by_validation then begin
            incr n_rejected;
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
               Server.make_package config.server app ~bad:(i < bad_n) ())))
  in
  {
    per_bucket = published;
    published = config.n_buckets * n;
    rejected = 0;
    bad_published = config.n_buckets * bad_n;
  }
