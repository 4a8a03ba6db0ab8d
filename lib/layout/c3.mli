(** C3 function sorting (Ottoni & Maher, CGO 2017), used by HHVM to decide
    the order in which optimized translations are placed in the code cache.

    Paper §V-B: prior to Jump-Start the call graph fed to C3 came from
    tier-1 instrumentation, which is inaccurate for inlined tier-2 code;
    Jump-Start rebuilds it from optimized-code instrumentation on the
    seeders and ships the resulting order in the profile package. *)

type node = {
  id : int;
  size : int;  (** code bytes of the function's translations *)
  samples : float;  (** execution hotness (e.g. entry count) *)
}

type call_arc = {
  caller : int;
  callee : int;
  weight : float;  (** call frequency caller -> callee *)
}

(** [order ~nodes ~arcs ()] returns the function ids in placement order.

    Algorithm: process functions by decreasing hotness; each function's
    cluster is appended to the cluster of its most likely caller (the
    predecessor with the highest incoming arc weight), unless the combined
    size exceeds [max_cluster_size] (default 2 MiB ~ a huge page) or the arc
    carries less than 0.5 % of the callee's samples; finally clusters are
    emitted by decreasing density.

    @raise Invalid_argument if node ids are not [0..n-1] exactly. *)
val order :
  nodes:node array ->
  arcs:call_arc array ->
  ?max_cluster_size:int ->
  unit ->
  int array

(** Locality proxy: average "call distance" in bytes between caller and
    callee under a given placement, weighted by arc frequency.  Lower is
    better; used by tests and the ablation bench to compare orders. *)
val weighted_call_distance : nodes:node array -> arcs:call_arc array -> int array -> float
