(** The consumer's view of the package store: one {!Store.pick_random}
    behind the {b fingerprint gate}.

    A picked package whose {!Package.meta.repo_fingerprint} disagrees with
    the consumer's repo was profiled on a different build of the
    application; the fetch reports it as {!Rejected} rather than
    {!Delivered}, and {!Consumer.boot_dist} either salvages it through the
    stale-profile matcher or burns a boot attempt on it (stage
    [consumer.fetch]).  Network faults, retries and cross-region fallback
    are the fleet's concern and live in [Cluster.Dist_net].

    With [telemetry], the pick bumps [store.picks] and a gate reject bumps
    [dist.stale_rejects] and [dist.fingerprint_mismatch]. *)

type t

(** [create ?repo store] wraps [store].  [repo] enables the fingerprint
    gate; without it every picked package is delivered. *)
val create : ?repo:Hhbc.Repo.t -> Store.t -> t

(** Why the gate refused a picked package.  The payload is a well-formed
    package for a {e different build} of this application, which the
    stale-profile matcher can re-anchor. *)
type reject_kind = Fingerprint_mismatch

type fetch_result =
  | Delivered of { bytes : string; meta : Package.meta }  (** a usable package *)
  | Rejected of {
      kind : reject_kind;
      reason : string;
      bytes : string;  (** the picked payload, kept for the salvage path *)
      meta : Package.meta;
    }
      (** picked but refused by the fingerprint gate *)
  | No_package  (** the store holds no package for this key *)

(** [fetch t rng ~region ~bucket] picks one package of the key uniformly at
    random ({!Store.pick_random}, one draw) and runs the gate.  [now] is
    accepted and ignored. *)
val fetch :
  ?telemetry:Js_telemetry.t ->
  ?now:float ->
  t ->
  Js_util.Rng.t ->
  region:int ->
  bucket:int ->
  fetch_result
