type entry = { mutable bytes : string; meta : Package.meta; mutable picks : int }
type t = { table : (int * int, entry list ref) Hashtbl.t }

let create () = { table = Hashtbl.create 16 }

let slot t ~region ~bucket =
  match Hashtbl.find_opt t.table (region, bucket) with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.add t.table (region, bucket) l;
    l

let publish t ~region ~bucket bytes meta =
  let l = slot t ~region ~bucket in
  l := { bytes; meta; picks = 0 } :: !l

(* Uniform pick without materializing the entry list as an array on every
   call (one boot attempt per server across a fleet adds up).  Draw-identical
   to [Rng.pick rng (Array.of_list entries)]: both consume exactly one
   [Rng.int] over the list in its natural order. *)
let nth_random rng entries = List.nth entries (Js_util.Rng.int rng (List.length entries))

let pick_random ?telemetry t rng ~region ~bucket =
  match Hashtbl.find_opt t.table (region, bucket) with
  | None -> None
  | Some { contents = [] } -> None
  | Some { contents = entries } ->
    let e = nth_random rng entries in
    e.picks <- e.picks + 1;
    (match telemetry with
    | None -> ()
    | Some tel ->
      Js_telemetry.incr tel "store.picks";
      Js_telemetry.record tel
        (Js_telemetry.Package_selected
           { region; bucket; seeder_id = e.meta.Package.seeder_id }));
    Some (e.bytes, e.meta)

let count t ~region ~bucket =
  match Hashtbl.find_opt t.table (region, bucket) with
  | None -> 0
  | Some l -> List.length !l

let selection_counts t ~region ~bucket =
  match Hashtbl.find_opt t.table (region, bucket) with
  | None -> []
  | Some l -> List.rev_map (fun e -> (e.meta, e.picks)) !l

let flip_byte s pos =
  let b = Bytes.of_string s in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x5a));
  Bytes.to_string b

(* Frame layout (Binio.frame): magic, version byte, u32 payload length,
   payload, trailing u32 CRC.  The non-semantic flip must land inside the
   payload span so the CRC check is what catches it — the old mid-frame
   position could hit the magic/length header (or the CRC itself) for tiny
   packages and silently exercise the wrong rejection path. *)
let payload_flip_pos bytes =
  let hdr = String.length Package.magic + 5 in
  let payload_len = String.length bytes - hdr - 4 in
  if payload_len > 0 then hdr + (payload_len / 2) else String.length bytes / 2

let corrupt_one ?(semantic = false) t rng ~region ~bucket =
  match Hashtbl.find_opt t.table (region, bucket) with
  | None | Some { contents = [] } -> false
  | Some { contents = entries } ->
    let e = nth_random rng entries in
    (if not semantic then e.bytes <- flip_byte e.bytes (payload_flip_pos e.bytes)
     else
       (* Semantic corruption: damage the payload but re-frame with a fresh
          CRC, so the flip survives the checksum and must be caught (if at
          all) by decode range checks or the consistency pass downstream. *)
       match
         Js_util.Binio.unframe ~magic:Package.magic ~expected_version:Package.version e.bytes
       with
       | exception Js_util.Binio.Corrupt _ ->
         e.bytes <- flip_byte e.bytes (String.length e.bytes / 2)
       | payload when String.length payload = 0 ->
         (* nothing to flip semantically; fall back to a whole-frame flip
            (an empty payload used to crash Rng.int with bound 0) *)
         e.bytes <- flip_byte e.bytes (String.length e.bytes / 2)
       | payload ->
         let pos = Js_util.Rng.int rng (String.length payload) in
         e.bytes <-
           Js_util.Binio.frame ~magic:Package.magic ~version:Package.version
             (flip_byte payload pos));
    true
