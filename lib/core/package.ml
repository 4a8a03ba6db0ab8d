module B = Js_util.Binio
module W = B.Writer
module Rd = B.Reader
module SM = Jit_profile.Stale_match

type meta = {
  region : int;
  bucket : int;
  seeder_id : int;
  n_profiled_funcs : int;
  total_entries : int;
  repo_fingerprint : int;
  published_at : int;
}

type t = {
  meta : meta;
  counters : Jit_profile.Counters.t;
  vasm : Jit.Vasm_profile.t;
  func_order : int array;
  preload_units : int array;
}

let magic = "JSPK"
let version = 4

(* The repo shape the seeder profiled against, embedded in every package
   (version 2): its table sizes, in this order.  A consumer running a
   different build of the application rejects the package at decode with a
   field-specific message instead of importing counters whose ids silently
   alias other entities. *)
let shape_fields =
  [| "unit count"; "function count"; "class count"; "string count"; "static array count";
     "name count" |]

let shape_sizes repo =
  Hhbc.Repo.
    [| n_units repo; n_funcs repo; n_classes repo; n_strings repo; n_static_arrays repo;
       n_names repo |]

let to_bytes t =
  let w = W.create () in
  W.varint w t.meta.region;
  W.varint w t.meta.bucket;
  W.varint w t.meta.seeder_id;
  W.varint w t.meta.n_profiled_funcs;
  W.varint w t.meta.total_entries;
  (* version 3: provenance for the consumer's fingerprint gate *)
  W.varint w t.meta.repo_fingerprint;
  W.varint w t.meta.published_at;
  let repo = Jit_profile.Counters.repo t.counters in
  Array.iter (W.varint w) (shape_sizes repo);
  (* version 4: the stale-match table — qualified names + id-free structural
     hashes of every function/block in the profiled build, so a consumer on
     a drifted build can salvage the counters instead of discarding them *)
  SM.write_shape w (SM.shape_of_repo repo);
  W.array w (fun uid -> W.varint w uid) t.preload_units;
  W.array w (fun fid -> W.varint w fid) t.func_order;
  Jit_profile.Counters.serialize t.counters w;
  Jit.Vasm_profile.serialize t.vasm w;
  B.frame ~magic ~version (W.contents w)

(* The payload's sections as the bytes give them, no id checked yet. *)
type sections = {
  s_meta : meta;
  s_sizes : int array;  (* the profiled repo's, in [shape_fields] order *)
  s_table : SM.shape;
  s_preload : int array;
  s_order : int array;
  s_counters : Jit_profile.Counters.raw;
  s_vasm : Jit.Vasm_profile.t;
}

(* The one parse of the v4 payload; both decodes start from it. *)
let parse data =
  let r = Rd.of_string (B.unframe ~magic ~expected_version:version data) in
  let region = Rd.varint r in
  let bucket = Rd.varint r in
  let seeder_id = Rd.varint r in
  let n_profiled_funcs = Rd.varint r in
  let total_entries = Rd.varint r in
  let repo_fingerprint = Rd.varint r in
  let published_at = Rd.varint r in
  let s_sizes = Array.map (fun _ -> Rd.varint r) shape_fields in
  let s_table = SM.read_shape r in
  let s_preload = Rd.array r Rd.varint in
  let s_order = Rd.array r Rd.varint in
  let s_counters = Jit_profile.Counters.read_raw r in
  let s_vasm = Jit.Vasm_profile.deserialize r in
  Rd.expect_end r;
  {
    s_meta =
      {
        region;
        bucket;
        seeder_id;
        n_profiled_funcs;
        total_entries;
        repo_fingerprint;
        published_at;
      };
    s_sizes;
    s_table;
    s_preload;
    s_order;
    s_counters;
    s_vasm;
  }

let of_bytes repo data =
  try
    let s = parse data in
    let corrupt msg = raise (B.Corrupt msg) in
    let sizes = shape_sizes repo in
    Array.iteri
      (fun i got ->
        if got <> sizes.(i) then
          corrupt
            (Printf.sprintf "repo shape mismatch: %s %d (package) <> %d (repo)" shape_fields.(i)
               got sizes.(i)))
      s.s_sizes;
    (* the match table only serves the salvage path ({!of_bytes_stale}); an
       exact repo checks every id directly *)
    let n_funcs = Hhbc.Repo.n_funcs repo in
    let n_units = Hhbc.Repo.n_units repo in
    let check_ids n what = Array.iter (fun id -> if id >= n then corrupt what) in
    check_ids n_units "preload unit out of range" s.s_preload;
    check_ids n_funcs "func order id out of range" s.s_order;
    let counters = Jit_profile.Counters.of_raw repo s.s_counters in
    if Jit.Vasm_profile.max_fid s.s_vasm >= n_funcs then
      corrupt "vasm profile: function id out of range";
    Ok
      {
        meta = s.s_meta;
        counters;
        vasm = s.s_vasm;
        func_order = s.s_order;
        preload_units = s.s_preload;
      }
  with B.Corrupt msg -> Error ("corrupt package: " ^ msg)

(* Salvage decode for a fingerprint-mismatched package (paper §VI-B: reuse
   a profile across code pushes instead of cold-booting).  Nothing in the
   parse is validated against [repo] — the ids belong to the build the
   seeder ran — so every section is re-anchored through the embedded match
   table by {!Jit_profile.Stale_match.transfer}.  The result is a normal
   package against [repo]: exact-path invariants (fingerprint,
   profiled-function count, entry total) are recomputed, so it passes
   {!of_bytes} round-trips and the downstream P3xx gates. *)
let of_bytes_stale repo data =
  try
    let s = parse data in
    let tr = SM.transfer repo s.s_table s.s_counters in
    let n_old = Array.length tr.SM.fid_map in
    (* vasm-level counts index blocks of the seeder's translations; they only
       survive for functions whose bodies are strictly identical, where the
       consumer re-lowers to the same shape (P310/P311 re-verify). *)
    let vasm =
      Jit.Vasm_profile.remap s.s_vasm ~f:(fun ofid ->
          if ofid >= 0 && ofid < n_old && tr.SM.strict_match.(ofid) then tr.SM.fid_map.(ofid)
          else None)
    in
    let counters = tr.SM.counters in
    Ok
      ( {
          meta =
            {
              s.s_meta with
              n_profiled_funcs = List.length (Jit_profile.Counters.profiled_funcs counters);
              total_entries = Jit_profile.Counters.total_entries counters;
              repo_fingerprint = Hhbc.Repo.fingerprint repo;
            };
          counters;
          vasm;
          func_order = tr.SM.func_order s.s_order;
          preload_units = tr.SM.preload_units s.s_preload;
        },
        tr.SM.stats )
  with B.Corrupt msg -> Error ("corrupt package: " ^ msg)

let check_coverage t (options : Options.t) =
  if t.meta.n_profiled_funcs < options.Options.min_coverage_funcs then
    Error
      (Printf.sprintf "insufficient coverage: %d profiled functions < %d"
         t.meta.n_profiled_funcs options.Options.min_coverage_funcs)
  else if t.meta.total_entries < options.Options.min_coverage_entries then
    Error
      (Printf.sprintf "insufficient coverage: %d profiled entries < %d" t.meta.total_entries
         options.Options.min_coverage_entries)
  else Ok ()

let pp_meta fmt m =
  Format.fprintf fmt "package[region=%d bucket=%d seeder=%d funcs=%d entries=%d fp=%x t=%d]"
    m.region m.bucket m.seeder_id m.n_profiled_funcs m.total_entries
    (m.repo_fingerprint land 0xffffff) m.published_at
