module R = Js_util.Rng
module Stats = Js_util.Stats

let derive_seeds ~seed ~n =
  if n < 1 then invalid_arg "Harness.derive_seeds: n must be >= 1";
  let root = R.create seed in
  Array.init n (fun _ ->
      let child = R.split root in
      Int64.to_int (R.bits64 child) land max_int)

let bin_series ~bin samples =
  if bin <= 0. then invalid_arg "Harness.bin_series: bin must be positive";
  let n = Array.length samples in
  if n = 0 then [||]
  else begin
    let out = ref [] in
    let cur_bin = ref (int_of_float (Float.floor (fst samples.(0) /. bin))) in
    let sum = ref 0. and count = ref 0 in
    let flush () =
      if !count > 0 then
        out :=
          ( (float_of_int !cur_bin +. 0.5) *. bin,
            !sum /. float_of_int !count )
          :: !out
    in
    Array.iter
      (fun (t, v) ->
        let b = int_of_float (Float.floor (t /. bin)) in
        if b <> !cur_bin then begin
          flush ();
          cur_bin := b;
          sum := 0.;
          count := 0
        end;
        sum := !sum +. v;
        incr count)
      samples;
    flush ();
    Array.of_list (List.rev !out)
  end

let of_push cfg app ~seed =
  let s = Js_sim.Region.run { cfg with Js_sim.Region.record_latency = true } app ~seed in
  Array.map Stats.Series.to_array s.Js_sim.Region.server_latency

type run_result = {
  config : string;
  seed : int;
  server : int;
  result : Classify.result;
}

let run ?(domains = 1) ?(bin = 5.) ?classify ~configs ~seeds () =
  if Array.length seeds = 0 then invalid_arg "Harness.run: no seeds";
  if configs = [] then invalid_arg "Harness.run: no configs";
  let configs = Array.of_list configs in
  let nc = Array.length configs and ns = Array.length seeds in
  let cells = Array.make (nc * ns) [] in
  let work i =
    let ci = i / ns and si = i mod ns in
    let name, runner = configs.(ci) in
    let seed = seeds.(si) in
    let servers = runner ~seed in
    let acc = ref [] in
    for sv = Array.length servers - 1 downto 0 do
      let binned = bin_series ~bin servers.(sv) in
      (* a server that never completed a request has nothing to classify *)
      if Array.length binned > 0 then
        acc :=
          { config = name; seed; server = sv; result = Classify.classify ?config:classify binned }
          :: !acc
    done;
    cells.(i) <- !acc
  in
  let total = nc * ns in
  if domains <= 1 then
    for i = 0 to total - 1 do
      work i
    done
  else
    (* Each cell is independent and deterministic, and cell i is written by
       exactly one domain (round-robin), so the result — hence every digest
       and artifact downstream — is identical for any domain count. *)
    Js_util.Par.fork_join ~domains:(min domains total) (fun d ->
        let i = ref d in
        while !i < total do
          work !i;
          i := !i + domains
        done);
  List.concat (Array.to_list cells)

type summary = {
  s_config : string;
  runs : int;
  counts : (Classify.cls * int) list;
  tts : float array;
  tts_mean : float;
  tts_ci : float * float;
  steady : float array;
  steady_mean : float;
  steady_ci : float * float;
}

let summarize ?(ci_seed = 0x5eed) ?(replicates = 300) results =
  let order = ref [] in
  let by_config = Hashtbl.create 8 in
  List.iter
    (fun r ->
      if not (Hashtbl.mem by_config r.config) then begin
        order := r.config :: !order;
        Hashtbl.add by_config r.config []
      end;
      Hashtbl.replace by_config r.config (r :: Hashtbl.find by_config r.config))
    results;
  List.rev_map
    (fun name ->
      let rs = List.rev (Hashtbl.find by_config name) in
      let counts =
        List.map
          (fun c ->
            (c, List.length (List.filter (fun r -> r.result.Classify.cls = c) rs)))
          Classify.all_classes
      in
      let tts =
        rs
        |> List.filter (fun r -> r.result.Classify.cls <> Classify.No_steady_state)
        |> List.map (fun r -> r.result.Classify.tts)
        |> Array.of_list
      in
      let steady = Array.of_list (List.map (fun r -> r.result.Classify.steady_mean) rs) in
      let dist xs =
        if Array.length xs = 0 then (-1., (-1., -1.))
        else (Stats.mean xs, Stats.ci_bootstrap ~replicates ~seed:ci_seed xs Stats.mean)
      in
      let tts_mean, tts_ci = dist tts in
      let steady_mean, steady_ci = dist steady in
      { s_config = name; runs = List.length rs; counts; tts; tts_mean; tts_ci;
        steady; steady_mean; steady_ci })
    !order
