(** Ext-TSP basic-block reordering (Newell & Pupyrev, IEEE TC 2020), the
    algorithm HHVM uses for basic-block layout and that paper §V-A improves
    with accurate Vasm-level counters.

    The objective extends fall-through maximization ("TSP") with partial
    credit for short forward and backward jumps:

    - fall-through (gap 0): full arc weight;
    - forward jump with gap [0 < d <= 1024]: [0.1 * w * (1 - d/1024)];
    - backward jump with gap [0 < d <= 640]:  [0.1 * w * (1 - d/640)];
    - self-loop: 0 under any order.

    The optimizer greedily merges chains of blocks, considering both
    concatenation orders and splitting the receiving chain, until no merge
    improves the score; remaining chains are emitted entry-chain first, then
    by decreasing density.  Each connected chain pair's best merge is cached
    and recomputed only after one of its chains changed, so a merge costs a
    re-score of the merged chain's pairs, not of every pair.

    Ties are broken deterministically: among equal gains the first pair in
    the scan order of the connected-pair table wins, and within a pair the
    earlier candidate wins, in the order x·y, y·x, then y inserted into x at
    cuts from [len x - 1] down to 1. *)

(** Scoring parameters; {!default_params} matches the published constants. *)
type params = {
  forward_window : int;
  backward_window : int;
  forward_scale : float;
  backward_scale : float;
  max_chain_split : int;
      (** chains longer than this are not considered for splitting *)
}

val default_params : params

(** [score ?params cfg order] evaluates the Ext-TSP objective of a layout.
    [order] is a permutation of all block ids.
    @raise Invalid_argument if [order] is not a permutation. *)
val score : ?params:params -> Cfg.t -> int array -> float

(** [layout ?params cfg] computes a block order with the entry block first.
    Only the blocks of [cfg] are permuted; callers handle hot/cold splitting
    separately (see {!Hotcold}). *)
val layout : ?params:params -> Cfg.t -> int array
