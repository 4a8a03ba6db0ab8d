(* Smoke-size runs of every workload.  Checks that the metric names and
   units a run prints are exactly those BENCHMARK.json declares, that no op
   fails, and that the exact outputs (sim_slowdown and the package,
   placement and fleet digests) repeat across two runs of the same seed. *)

module W = Jsbench.Workloads
module R = Jsbench.Report

type json = Atom | Str of string | Arr of json list | Obj of (string * json) list

(* Just enough JSON to read BENCHMARK.json. *)
let parse s =
  let i = ref 0 in
  let more () = !i < String.length s in
  let peek () = if more () then s.[!i] else '\000' in
  let rec ws () = if more () && String.contains " \t\r\n" (peek ()) then (incr i; ws ()) in
  let expect c = ws (); if peek () <> c then failwith (Printf.sprintf "expected %c at %d" c !i); incr i in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    while more () && peek () <> '"' do
      if peek () = '\\' then incr i;
      Buffer.add_char b (peek ());
      incr i
    done;
    expect '"';
    Buffer.contents b
  in
  let rec items close item =
    ws ();
    if peek () = close then (incr i; [])
    else
      let x = item () in
      ws ();
      if peek () = ',' then (incr i; x :: items close item) else (expect close; [ x ])
  in
  let rec value () =
    ws ();
    match peek () with
    | '"' -> Str (string ())
    | '[' -> incr i; Arr (items ']' value)
    | '{' ->
      incr i;
      Obj (items '}' (fun () -> let k = string () in expect ':'; (k, value ())))
    | _ ->
      while more () && not (String.contains ",]} \t\r\n" (peek ())) do incr i done;
      Atom
  in
  let v = value () in
  ws ();
  if !i <> String.length s then failwith "trailing input";
  v

let declared section =
  let field k = function Obj kv -> List.assoc k kv | _ -> failwith "not an object" in
  let str = function Str s -> s | _ -> failwith "not a string" in
  match field section (parse (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all)) with
  | Arr metrics -> List.sort compare (List.map (fun m -> (str (field "name" m), str (field "unit" m))) metrics)
  | _ -> failwith (section ^ " is not an array")

let printed ~traced values =
  List.sort compare
    (List.map
       (fun line ->
         match String.split_on_char ' ' line with
         | [ name; _; unit ] -> (name, unit)
         | _ -> failwith ("malformed metric line: " ^ line))
       (R.lines ~traced values))

let failures = ref 0

let check name what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s: %s\n%!" name what
  end

let () =
  let e2e = declared "end_to_end" and layers = declared "per_layer" in
  check "BENCHMARK.json" "end_to_end matches Metrics" (e2e = List.sort compare Jsbench.Metrics.end_to_end);
  check "BENCHMARK.json" "per_layer matches Metrics" (layers = List.sort compare Jsbench.Metrics.per_layer);
  List.iter
    (fun (name, f) ->
      let run traced = f { W.seed = 3; seconds = 0.; size = Smoke; traced } in
      let a = run false and b = run false and t = run true in
      let e2e_a = R.end_to_end a in
      check name "end-to-end names and units" (printed ~traced:false e2e_a = e2e);
      check name "per-layer names and units" (printed ~traced:true (R.per_layer t) = layers);
      check name "no failed ops" (a.failed = 0 && b.failed = 0 && t.failed = 0 && a.attempted > 0);
      check name "end-to-end metrics are never 0" (List.for_all (fun (_, v) -> v > 0.) e2e_a);
      check name "sim_slowdown repeats exactly" (a.sim_slowdown = b.sim_slowdown);
      let digests (r : W.result) = List.filter (fun (k, _) -> String.ends_with ~suffix:"md5" k) r.info in
      check name "digests repeat exactly" (digests a <> [] && digests a = digests b);
      check name "result line is JSON" (Js_telemetry.Json.parses (R.result_json ~traced:false a e2e_a));
      Printf.printf "%-10s ok=%b ops=%d sim_slowdown=%.6f\n%!" name (!failures = 0) (Array.length a.op_s)
        a.sim_slowdown)
    W.all;
  if !failures > 0 then exit 1
