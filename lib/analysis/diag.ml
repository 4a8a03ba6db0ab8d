type severity = Error | Warning

type t = {
  code : string;
  severity : severity;
  fid : int option;
  pc : int option;
  message : string;
}

let make severity ?fid ?pc code message = { code; severity; fid; pc; message }
let error ?fid ?pc code message = make Error ?fid ?pc code message
let warning ?fid ?pc code message = make Warning ?fid ?pc code message
let is_error d = d.severity = Error

(* None sorts before Some: repo-wide diagnostics lead the report. *)
let compare_opt a b =
  match (a, b) with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some x, Some y -> compare x y

let compare a b =
  let c = compare_opt a.fid b.fid in
  if c <> 0 then c
  else
    let c = compare_opt a.pc b.pc in
    if c <> 0 then c
    else
      let c = String.compare a.code b.code in
      if c <> 0 then c else String.compare a.message b.message

let sort ds = List.sort compare ds
let errors ds = List.filter is_error ds
let ok ds = not (List.exists is_error ds)

let severity_to_string = function Error -> "error" | Warning -> "warning"

let to_string d =
  let locus =
    match (d.fid, d.pc) with
    | None, _ -> ""
    | Some fid, None -> Printf.sprintf " f%d" fid
    | Some fid, Some pc -> Printf.sprintf " f%d@%d" fid pc
  in
  Printf.sprintf "%s[%s]%s: %s" (severity_to_string d.severity) d.code locus d.message
