(* Benchmark command line.

     main.exe run WORKLOAD [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
     main.exe --workload WORKLOAD ...     (same as run WORKLOAD)
     main.exe list
     main.exe spread [--sets N] [--seed N] [--seconds S] [--workload WORKLOAD]

   A run prints provenance and info as "# key value" lines, then every
   metric as "name value unit", and ends with one JSON result line.  With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 the same
   ops are rerun with spans on and the metrics are the per-layer ones, and a
   Chrome trace plus a self-time table are written under --out.  [spread]
   runs each workload --sets times in child processes, with seeds N, N+1,
   ..., and reports how much each end-to-end metric moved between them. *)

module W = Jsbench.Workloads
module R = Jsbench.Report

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable traced : bool;
  mutable out : string;
  mutable sets : int;
}

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("benchmark: " ^ msg); exit 2) fmt

let parse args =
  let o =
    { workload = None; seed = 1; seconds = 10.; traced = false; out = "benchmark/out"; sets = 5 }
  in
  let number conv flag v = match conv v with Some x -> x | None -> fail "bad value %S for %s" v flag in
  let rec go = function
    | [] -> ()
    | ("run" | "--workload") :: w :: rest ->
      o.workload <- Some w;
      go rest
    | "--seed" :: v :: rest ->
      o.seed <- number int_of_string_opt "--seed" v;
      go rest
    | "--seconds" :: v :: rest ->
      o.seconds <- number float_of_string_opt "--seconds" v;
      if not (o.seconds >= 0.) then fail "--seconds must be >= 0";
      go rest
    | "--trace" :: v :: rest ->
      o.traced <- (match v with "0" -> false | "1" -> true | _ -> fail "--trace takes 0 or 1");
      go rest
    | "--out" :: v :: rest ->
      o.out <- v;
      go rest
    | "--sets" :: v :: rest ->
      o.sets <- number int_of_string_opt "--sets" v;
      if o.sets < 2 then fail "--sets must be >= 2";
      go rest
    | a :: _ -> fail "unexpected argument %S (see the header of benchmark/main.ml)" a
  in
  go args;
  o

let workload name =
  match List.assoc_opt name W.all with
  | Some f -> f
  | None -> fail "unknown workload %S (one of: %s)" name (String.concat ", " (List.map fst W.all))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* Commit of the checkout, read from ./.git only; "unknown" without one. *)
let commit () =
  let read path = try Some (String.trim (In_channel.with_open_bin path In_channel.input_all)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head when not (String.starts_with ~prefix:"ref: " head) -> head
  | Some head -> (
    let name = String.sub head 5 (String.length head - 5) in
    match read (Filename.concat ".git" name) with
    | Some sha -> sha
    | None ->
      let packed = Option.value ~default:"" (read ".git/packed-refs") in
      List.find_map
        (fun line ->
          match String.split_on_char ' ' line with [ sha; r ] when r = name -> Some sha | _ -> None)
        (String.split_on_char '\n' packed)
      |> Option.value ~default:"unknown")

let provenance o name (r : W.result) =
  let t = Unix.gmtime (Unix.time ()) in
  [ ("workload", name);
    ("commit", commit ());
    ( "date",
      Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.tm_year + 1900) (t.tm_mon + 1) t.tm_mday
        t.tm_hour t.tm_min t.tm_sec );
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("seed", string_of_int o.seed);
    ("seconds", Printf.sprintf "%g" o.seconds);
    ("trace", if o.traced then "1" else "0");
    ("setup_reps", string_of_int (Array.length r.setup_s));
    ("ops", string_of_int (Array.length r.op_s))
  ]

let run o name =
  let f = workload name in
  let r = f { W.seed = o.seed; seconds = o.seconds; size = Full; traced = o.traced } in
  let values = if o.traced then R.per_layer r else R.end_to_end r in
  let prov = provenance o name r in
  List.iter (fun (k, v) -> Printf.printf "# %s %s\n" k v) (prov @ r.info);
  List.iter print_endline (R.lines ~traced:o.traced values);
  mkdir_p o.out;
  let stem = Filename.concat o.out (name ^ if o.traced then ".traced" else "") in
  let summary = R.summary_json ~workload:name ~provenance:prov ~traced:o.traced r values in
  if not (Js_telemetry.Json.parses summary) then fail "summary for %s is not valid JSON" name;
  write (stem ^ ".json") summary;
  if o.traced then begin
    let spans = Jsbench.Trace.spans () in
    let chrome = Jsbench.Trace.chrome_json ~workload:name spans in
    if not (Js_telemetry.Json.parses chrome) then fail "trace for %s is not valid JSON" name;
    write (stem ^ ".trace.json") chrome;
    let table = R.self_time_table spans in
    write (stem ^ ".selftime.txt") table;
    String.split_on_char '\n' table
    |> List.iter (fun l -> if l <> "" then Printf.printf "# %s\n" l);
    Printf.printf "# trace %s.trace.json (%d spans)\n" stem (List.length spans)
  end;
  print_endline (R.result_json ~traced:o.traced r values)

let spread o =
  let names =
    match o.workload with
    | Some w ->
      let (_ : W.config -> W.result) = workload w in
      [ w ]
    | None -> List.map fst W.all
  in
  List.iter
    (fun name ->
      let sets =
        List.init o.sets (fun k ->
            let args =
              [ "--workload"; name; "--seed"; string_of_int (o.seed + k); "--seconds";
                Printf.sprintf "%g" o.seconds; "--trace"; "0"; "--out"; o.out ]
            in
            let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
            let lines = In_channel.input_all ic |> String.split_on_char '\n' in
            (match Unix.close_process_in ic with
            | Unix.WEXITED 0 -> ()
            | _ -> fail "spread: %s with seed %d failed" name (o.seed + k));
            List.filter_map
              (fun l ->
                match String.split_on_char ' ' l with
                | [ metric; v; _ ] when List.mem_assoc metric Jsbench.Metrics.end_to_end ->
                  Some (metric, float_of_string v)
                | _ -> None)
              lines)
      in
      List.iter
        (fun (metric, unit) ->
          let vs = Array.of_list (List.map (List.assoc metric) sets) in
          let med = Js_util.Stats.median vs in
          let dev = Array.fold_left (fun a v -> Float.max a (Float.abs (v -. med) /. med)) 0. vs in
          Printf.printf "%-10s %-13s median %14.6g %-3s max_rel_dev %.4f  [%s]\n%!" name metric med
            unit dev
            (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.6g") vs))))
        Jsbench.Metrics.end_to_end)
    names

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "list" ] -> List.iter (fun (name, _) -> print_endline name) W.all
  | "spread" :: args -> spread (parse args)
  | args -> (
    let o = parse args in
    match o.workload with Some name -> run o name | None -> fail "no workload given (try: list)")
