(* Warmup curves of a restarting web server, with and without Jump-Start:

     dune exec examples/warmup_curve.exe

   Plots (in ASCII) the first ten minutes of paper Fig. 4b, plus the
   capacity-loss arithmetic. *)

module S = Cluster.Server
module Series = Js_util.Stats.Series

let bar width frac =
  let n = max 0 (min width (int_of_float (frac *. float_of_int width))) in
  String.make n '#' ^ String.make (width - n) ' '

let () =
  let app = Workload.Macro_app.generate Workload.Macro_app.default_params in
  Printf.printf "synthetic application: %d functions, %.0f MB bytecode\n"
    (Array.length app.Workload.Macro_app.funcs)
    (float_of_int (Workload.Macro_app.total_size app) /. 1e6);
  let cfg = S.default_config in
  let nojs = S.create ~discovery_seed:1 cfg app S.No_jumpstart in
  S.run nojs ~until:600. ~dt:1.;
  let pkg = S.make_package cfg app () in
  let js = S.create ~discovery_seed:2 cfg app (S.Consumer pkg) in
  S.run js ~until:600. ~dt:1.;
  Printf.printf "\npackage: %.0f MB optimized code for %d covered functions\n"
    (float_of_int pkg.S.opt_bytes /. 1e6)
    (Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 pkg.S.covered);
  Printf.printf "\nnormalized RPS over uptime (# = 2.5%% of peak)\n";
  Printf.printf "%6s  %-42s %-42s\n" "sec" "no Jump-Start" "Jump-Start";
  for step = 0 to 20 do
    let t = float_of_int (step * 30) in
    let f srv = Series.value_at (S.rps_series srv) t /. S.peak_rps srv in
    Printf.printf "%6.0f  [%s] [%s]\n" t (bar 40 (f nojs)) (bar 40 (f js))
  done;
  let loss srv = Series.capacity_loss (S.rps_series srv) ~peak:(S.peak_rps srv) ~until:600. in
  Printf.printf "\n10-minute capacity loss: no-JS %.1f%%, JS %.1f%% (paper: 78.3%% / 35.3%%)\n"
    (100. *. loss nojs) (100. *. loss js);
  Printf.printf "relative reduction: %.1f%% (paper: 54.9%%)\n"
    (100. *. (1. -. (loss js /. loss nojs)));
  Printf.printf "\nlatency at selected uptimes (ms):\n";
  List.iter
    (fun t ->
      Printf.printf "  t=%3.0fs  no-JS %6.0f   JS %6.0f\n" t
        (1000. *. Series.value_at (S.latency_series nojs) t)
        (1000. *. Series.value_at (S.latency_series js) t))
    [ 100.; 200.; 300.; 600. ]
