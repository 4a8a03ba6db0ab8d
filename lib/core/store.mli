(** Package store: the distribution channel between seeders and consumers.

    Keyed by (data-center region, semantic bucket), holding the {e multiple
    randomized profiles} of paper §VI-A.2: several seeders publish
    independently collected packages, and each consumer picks one at random
    on every (re)boot, bounding the blast radius of a bad package.

    Packages are stored as serialized bytes — consumers must go through the
    full decode/validate path, so corruption is exercised for real. *)

type t

val create : unit -> t

(** [publish t ~region ~bucket bytes meta] adds a package. *)
val publish : t -> region:int -> bucket:int -> string -> Package.meta -> unit

(** [pick_random t rng ~region ~bucket] — a uniformly random package for the
    key, or [None] if none published.  With [telemetry], bumps the
    [store.picks] counter and records a [Package_selected] event. *)
val pick_random :
  ?telemetry:Js_telemetry.t ->
  t ->
  Js_util.Rng.t ->
  region:int ->
  bucket:int ->
  (string * Package.meta) option

val count : t -> region:int -> bucket:int -> int

(** [selection_counts t ~region ~bucket] — how often each published package
    has been handed out by {!pick_random}, in publication order (the per-
    package selection distribution behind §VI-A.2's blast-radius argument). *)
val selection_counts : t -> region:int -> bucket:int -> (Package.meta * int) list

(** Test/fault-injection hook: corrupt one stored package by flipping a byte
    mid-payload.  Returns [false] if the key holds no packages.

    By default the flip lands inside the frame's {e payload span} (never the
    magic/version/length header or the trailing CRC word), so the CRC check
    is what catches it at decode.  With [~semantic:true] the frame is
    stripped, a random payload byte is flipped, and the package is re-framed
    with a fresh CRC — modelling a seeder that {e wrote} bad data rather
    than a channel that damaged good data.  Such packages pass the checksum
    and must be rejected by decode range checks or the {!Package_check}
    consistency pass.  Unframeable or empty-payload entries fall back to a
    whole-frame flip rather than raising. *)
val corrupt_one : ?semantic:bool -> t -> Js_util.Rng.t -> region:int -> bucket:int -> bool
