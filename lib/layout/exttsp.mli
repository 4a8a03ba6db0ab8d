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
    cuts from [len x - 1] down to 1.

    Not every candidate is scored.  Candidate [cut] scores at most
    [score x + score y], plus each arc between x and y scored at its offset
    in that candidate, minus what the fall-through arcs [x[cut-1] -> x[cut]]
    lose once y's bytes sit between them: inserting y only widens gaps
    inside x, and an arc's score never rises with its gap.  The candidate
    with the highest bound is scored first, and one whose bound plus the
    rounding margin [(4m + 16) epsilon_float (1 + M)] lies below a score
    already computed is skipped ([m] non-self-loop arcs,
    [M = score x + score y + weight(x, y)]; the margin follows from the
    error bound of a float sum of non-negative terms).  This needs
    non-negative sizes and finite non-negative weights, which {!Cfg.create}
    checks, and scales in [0, 1].  A skipped candidate scores strictly less
    than a scored one, so it is never the first maximum: the survivors are
    scored as before, in the same float summation order, and the tie-breaks
    above return the same order. *)

(** [score cfg order] evaluates the Ext-TSP objective of a layout.
    [order] is a permutation of all block ids.
    @raise Invalid_argument if [order] is not a permutation. *)
val score : Cfg.t -> int array -> float

(** [layout ?max_chain_split cfg] computes a block order with the entry
    block first.  Chains longer than [max_chain_split] (default 128) are not
    split.  Only the blocks of [cfg] are permuted; callers handle hot/cold
    splitting separately (see {!Hotcold}). *)
val layout : ?max_chain_split:int -> Cfg.t -> int array
