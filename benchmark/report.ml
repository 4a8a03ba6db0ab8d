(* Turns a workload result into the printed metrics, the self-time table
   and the JSON documents. *)

module W = Workloads

let end_to_end (r : W.result) =
  [ ("setup_s", Js_util.Stats.median r.setup_s);
    ("op_ms", Js_util.Stats.median r.op_s *. 1e3);
    ("peak_heap_mb", r.peak_heap_mb);
    ("sim_slowdown", r.sim_slowdown)
  ]

(* Every declared per-layer metric, 0 where the workload has no such layer.
   A name the workload reports but [Metrics] does not declare is a bug. *)
let per_layer (r : W.result) =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name Metrics.per_layer) then
        invalid_arg ("undeclared per-layer metric " ^ name))
    r.layer;
  List.map
    (fun (name, _) -> (name, Option.value ~default:0. (List.assoc_opt name r.layer)))
    Metrics.per_layer

let units traced = if traced then Metrics.per_layer else Metrics.end_to_end

(* The shortest decimal that reads back as exactly [v]. *)
let number v =
  if not (Float.is_finite v) then "null"
  else
    let exact p = let s = Printf.sprintf "%.*g" p v in if float_of_string s = v then Some s else None in
    match exact 15 with
    | Some s -> s
    | None -> ( match exact 16 with Some s -> s | None -> Printf.sprintf "%.17g" v)

(* "name value unit", one line per metric. *)
let lines ~traced values =
  List.map
    (fun (name, v) -> Printf.sprintf "%s %s %s" name (number v) (List.assoc name (units traced)))
    values

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' -> Buffer.add_char b '\\'; Buffer.add_char b c
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let metrics_json ~traced values =
  String.concat ", "
    (List.map
       (fun (name, v) ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name) (number v)
           (json_string (List.assoc name (units traced))))
       values)

(* The result line: exactly correct, attempted, failed and metrics. *)
let result_json ~traced (r : W.result) values =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failed = 0 && List.for_all (fun (_, v) -> Float.is_finite v) values)
    r.attempted r.failed (metrics_json ~traced values)

(* Everything a later reader needs to diff two runs. *)
let summary_json ~workload ~provenance ~traced (r : W.result) values =
  let obj kvs =
    "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) kvs) ^ "}"
  in
  let strings kvs = obj (List.map (fun (k, v) -> (k, json_string v)) kvs) in
  obj
    [ ("workload", json_string workload);
      ("provenance", strings provenance);
      ("info", strings r.info);
      ("setup_samples", string_of_int (Array.length r.setup_s));
      ("op_samples", string_of_int (Array.length r.op_s));
      ("result", result_json ~traced r values)
    ]
  ^ "\n"

(* Self time per layer over the traced ops; container spans (op, seed,
   boot) count as unattributed.  Probes run outside the ops and are listed
   on their own. *)
let self_time_table spans =
  let selfs = Trace.self_times (List.filter (fun (s : Trace.span) -> s.op >= 0) spans) in
  let in_ops = List.filter (fun ((s : Trace.span), _) -> not (List.mem s.name W.probes)) selfs in
  let total = List.fold_left (fun a (_, st) -> a +. st) 0. in_ops in
  let by = Hashtbl.create 16 in
  List.iter
    (fun ((s : Trace.span), st) ->
      let key = if List.mem s.name W.containers then "(unattributed)" else Trace.layer s.name in
      Hashtbl.replace by key (st +. Option.value ~default:0. (Hashtbl.find_opt by key)))
    in_ops;
  let rows = List.sort (fun (_, a) (_, b) -> compare b a) (List.of_seq (Hashtbl.to_seq by)) in
  let b = Buffer.create 1024 in
  Printf.bprintf b "%-16s %12s %8s\n" "layer" "self_s" "share";
  List.iter
    (fun (k, st) -> Printf.bprintf b "%-16s %12.6f %7.2f%%\n" k st (100. *. st /. Float.max total 1e-12))
    rows;
  Printf.bprintf b "%-16s %12.6f\n" "total" total;
  List.iter
    (fun ((s : Trace.span), _) ->
      if List.mem s.name W.probes then Printf.bprintf b "probe %-10s %12.6f (op %d)\n" s.name (Trace.dur s) s.op)
    selfs;
  Buffer.contents b
