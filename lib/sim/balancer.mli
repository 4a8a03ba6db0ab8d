(** Load-balancing policies for the discrete-event simulator.

    The warmup-aware policy is the simulator's stand-in for the slow-start /
    capacity-aware routing production balancers apply to freshly restarted
    HHVM servers (paper §II-B): routing probability proportional to each
    server's {e estimated current capacity}, so cold servers receive little
    traffic until their warmup curve flattens. *)

type policy =
  | Random  (** uniform over serving servers *)
  | Round_robin  (** cycles the candidate set *)
  | Least_outstanding  (** fewest in-flight requests; ties to lowest index *)
  | Warmup_weighted  (** probability proportional to estimated capacity *)

val policy_to_string : policy -> string

(** Accepts the canonical names plus short aliases ("rr", "aware", ...). *)
val policy_of_string : string -> policy option

val all_policies : policy list

type t

val create : policy -> t
val policy : t -> policy

(** [pick t rng ~n ~candidates ~outstanding ~weights] chooses one of the
    first [n] entries of [candidates] (server indices) and returns it, or
    [-1] iff [n = 0].  The prefix lets callers keep a persistent dense
    "accepting" array and route without rebuilding candidate arrays per
    arrival.  [outstanding] and [weights] are indexed by server:
    [Least_outstanding] reads only [outstanding] (in-flight requests),
    [Warmup_weighted] only [weights] (estimated current capacity, floored
    at 1e-9), and the other two policies neither, so callers may pass
    [[||]] for an array their policy does not read.  Only [Random] and
    [Warmup_weighted] consume randomness, one draw per pick.  A pick
    allocates no array, closure or option.  [Random] and [Round_robin] are O(1); the scanning
    policies are O(n) per pick.  The weighted draw is
    {!Js_util.Rng.sample_weighted} over the floored weights of the prefix,
    bit for bit. *)
val pick :
  t ->
  Js_util.Rng.t ->
  n:int ->
  candidates:int array ->
  outstanding:int array ->
  weights:float array ->
  int

(** [pick_region ~home ~n_regions ~cursor ~up] chooses a cross-region
    spillover target: the first region [<> home] satisfying [up], scanning
    round-robin from [cursor].  Returns the region and the advanced cursor.
    Pure and rng-free, so spillover routing cannot perturb the per-region
    random streams (part of the epoch-barrier determinism argument). *)
val pick_region :
  home:int -> n_regions:int -> cursor:int -> up:(int -> bool) -> (int * int) option
