type t = {
  store : Store.t;
  expected_fingerprint : int option;
}

let create ?repo store =
  (* O(bytecode), so hash the build once here rather than per fetch *)
  { store; expected_fingerprint = Option.map Hhbc.Repo.fingerprint repo }

type reject_kind = Fingerprint_mismatch

type fetch_result =
  | Delivered of { bytes : string; meta : Package.meta }
  | Rejected of { kind : reject_kind; reason : string; bytes : string; meta : Package.meta }
  | No_package

(* The fingerprint gate (§VII profile reuse): a package built against a
   different repo is unusable as-is, though the salvage path may re-anchor
   it. *)
let fetch ?telemetry ?now:_ t rng ~region ~bucket =
  match Store.pick_random ?telemetry t.store rng ~region ~bucket with
  | None -> No_package
  | Some (bytes, meta) -> (
    match t.expected_fingerprint with
    | Some fp when meta.Package.repo_fingerprint <> fp ->
      Option.iter
        (fun s ->
          Js_telemetry.incr s "dist.stale_rejects";
          Js_telemetry.incr s "dist.fingerprint_mismatch")
        telemetry;
      Rejected
        {
          kind = Fingerprint_mismatch;
          reason =
            Printf.sprintf "repo fingerprint mismatch: package %x <> repo %x (stale release)"
              (meta.Package.repo_fingerprint land 0xffffff)
              (fp land 0xffffff);
          bytes;
          meta;
        }
    | Some _ | None -> Delivered { bytes; meta })
