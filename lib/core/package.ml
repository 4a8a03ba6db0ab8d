module B = Js_util.Binio
module W = B.Writer
module Rd = B.Reader

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
   (version 2).  A consumer running a different build of the application
   rejects the package at decode with a field-specific message instead of
   importing counters whose ids silently alias other entities. *)
let write_repo_shape w repo =
  W.varint w (Hhbc.Repo.n_units repo);
  W.varint w (Hhbc.Repo.n_funcs repo);
  W.varint w (Hhbc.Repo.n_classes repo);
  W.varint w (Hhbc.Repo.n_strings repo);
  W.varint w (Hhbc.Repo.n_static_arrays repo);
  W.varint w (Hhbc.Repo.n_names repo)

let check_repo_shape r repo =
  let field what expected =
    let got = Rd.varint r in
    if got <> expected then
      raise
        (B.Corrupt (Printf.sprintf "repo shape mismatch: %s %d (package) <> %d (repo)" what got expected))
  in
  field "unit count" (Hhbc.Repo.n_units repo);
  field "function count" (Hhbc.Repo.n_funcs repo);
  field "class count" (Hhbc.Repo.n_classes repo);
  field "string count" (Hhbc.Repo.n_strings repo);
  field "static array count" (Hhbc.Repo.n_static_arrays repo);
  field "name count" (Hhbc.Repo.n_names repo)

let to_bytes t =
  let w = W.create () in
  W.varint w t.meta.region;
  W.varint w t.meta.bucket;
  W.varint w t.meta.seeder_id;
  W.varint w t.meta.n_profiled_funcs;
  W.varint w t.meta.total_entries;
  (* version 3: provenance for the distribution layer's staleness gate *)
  W.varint w t.meta.repo_fingerprint;
  W.varint w t.meta.published_at;
  write_repo_shape w (Jit_profile.Counters.repo t.counters);
  (* version 4: the stale-match table — qualified names + id-free structural
     hashes of every function/block in the profiled build, so a consumer on
     a drifted build can salvage the counters instead of discarding them *)
  Jit_profile.Stale_match.write_shape w
    (Jit_profile.Stale_match.shape_of_repo (Jit_profile.Counters.repo t.counters));
  W.array w (fun uid -> W.varint w uid) t.preload_units;
  W.array w (fun fid -> W.varint w fid) t.func_order;
  Jit_profile.Counters.serialize t.counters w;
  Jit.Vasm_profile.serialize t.vasm w;
  B.frame ~magic ~version (W.contents w)

let of_bytes repo data =
  try
    let payload = B.unframe ~magic ~expected_version:version data in
    let r = Rd.of_string payload in
    let region = Rd.varint r in
    let bucket = Rd.varint r in
    let seeder_id = Rd.varint r in
    let n_profiled_funcs = Rd.varint r in
    let total_entries = Rd.varint r in
    let repo_fingerprint = Rd.varint r in
    let published_at = Rd.varint r in
    check_repo_shape r repo;
    (* match table: carried for the salvage path ({!of_bytes_stale}); the
       fast path has an exact repo and does not consult it *)
    let (_ : Jit_profile.Stale_match.shape) = Jit_profile.Stale_match.read_shape r in
    let n_funcs = Hhbc.Repo.n_funcs repo in
    let n_units = Hhbc.Repo.n_units repo in
    let preload_units =
      Rd.array r (fun r ->
          let uid = Rd.varint r in
          if uid >= n_units then raise (B.Corrupt "preload unit out of range");
          uid)
    in
    let func_order =
      Rd.array r (fun r ->
          let fid = Rd.varint r in
          if fid >= n_funcs then raise (B.Corrupt "func order id out of range");
          fid)
    in
    let counters = Jit_profile.Counters.deserialize repo r in
    let vasm = Jit.Vasm_profile.deserialize ~n_funcs r in
    Rd.expect_end r;
    Ok
      {
        meta =
          {
            region;
            bucket;
            seeder_id;
            n_profiled_funcs;
            total_entries;
            repo_fingerprint;
            published_at;
          };
        counters;
        vasm;
        func_order;
        preload_units;
      }
  with B.Corrupt msg -> Error ("corrupt package: " ^ msg)

(* Salvage decode for a fingerprint-mismatched package (paper §VI-B: reuse
   a profile across code pushes instead of cold-booting).  Nothing here is
   validated against [repo] — the ids belong to the build the seeder ran —
   so every section is read leniently and re-anchored through the embedded
   match table by {!Jit_profile.Stale_match.transfer}.  The result is a
   normal package against [repo]: exact-path invariants (fingerprint,
   profiled-function count, entry total) are recomputed, so it passes
   {!of_bytes} round-trips and the downstream P3xx gates. *)
let of_bytes_stale repo data =
  try
    let payload = B.unframe ~magic ~expected_version:version data in
    let r = Rd.of_string payload in
    let region = Rd.varint r in
    let bucket = Rd.varint r in
    let seeder_id = Rd.varint r in
    let (_ : int) = Rd.varint r (* n_profiled_funcs: stale build's *) in
    let (_ : int) = Rd.varint r (* total_entries: stale build's *) in
    let (_ : int) = Rd.varint r (* repo_fingerprint: known mismatched *) in
    let published_at = Rd.varint r in
    for _ = 1 to 6 do
      ignore (Rd.varint r (* repo shape counts: stale build's *))
    done;
    let shape = Jit_profile.Stale_match.read_shape r in
    let old_preload = Rd.array r (fun r -> Rd.varint r) in
    let old_order = Rd.array r (fun r -> Rd.varint r) in
    let raw = Jit_profile.Stale_match.read_raw_counters r in
    let old_vasm = Jit.Vasm_profile.deserialize r in
    Rd.expect_end r;
    let tr = Jit_profile.Stale_match.transfer repo shape raw in
    let n_old = Array.length tr.Jit_profile.Stale_match.fid_map in
    (* vasm-level counts index blocks of the seeder's translations; they only
       survive for functions whose bodies are strictly identical, where the
       consumer re-lowers to the same shape (P310/P311 re-verify). *)
    let vasm =
      Jit.Vasm_profile.remap old_vasm ~f:(fun ofid ->
          if ofid >= 0 && ofid < n_old && tr.Jit_profile.Stale_match.strict_match.(ofid) then
            tr.Jit_profile.Stale_match.fid_map.(ofid)
          else None)
    in
    let counters = tr.Jit_profile.Stale_match.counters in
    let profiled = Jit_profile.Counters.profiled_funcs counters in
    Ok
      ( {
          meta =
            {
              region;
              bucket;
              seeder_id;
              n_profiled_funcs = List.length profiled;
              total_entries = Jit_profile.Counters.total_entries counters;
              repo_fingerprint = Hhbc.Repo.fingerprint repo;
              published_at;
            };
          counters;
          vasm;
          func_order = tr.Jit_profile.Stale_match.func_order old_order;
          preload_units = tr.Jit_profile.Stale_match.preload_units old_preload;
        },
        tr.Jit_profile.Stale_match.stats )
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
