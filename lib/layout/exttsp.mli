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
    by decreasing density.  Each merge is picked from a max-heap.  A
    connected chain pair whose chains changed enters keyed by an upper bound
    of its gain (see below), is scored exactly only once that key tops the
    heap, and then re-enters at its exact gain, which stays valid until one
    of its chains changes.  A merge therefore costs bounding the merged
    chain's pairs, plus scoring the few pairs whose bounds reach the top,
    plus heap operations; nothing scans every connected pair.  Over the hot
    CFGs of the churn-boot benchmark's eight builds (8 948 merges), 15 336
    pair evaluations score 52 857 candidates exactly; scanning the pair
    table twice per merge and re-scoring every stale pair visited 5.95 M
    table entries and ran 83 651 evaluations scoring 256 931 candidates.

    Ties are broken deterministically, and no order depends on the hash
    seed ([OCAMLRUNPARAM=R] moves nothing).  Among equal gains the winner is
    the pair that the greedy's original connected-pair table would scan
    first: a [Hashtbl.create 64] keyed by chain pairs (x, y), x < y, under a
    zero seed.  That scan order is computed explicitly: buckets
    [Hashtbl.hash (x, y) land (B - 1)] ascending, then the newest key first
    within a bucket, with B starting at 64 and doubling once the keys exceed
    2B.  The keys enter for the arcs in array order.  When y merges into x,
    a key (x, o) enters for each partner o of y that x lacks, dead chains
    included, in reverse scan order; no key ever leaves.  A pair wins only
    after every heap entry at its gain has been resolved.  Within a pair the
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
    above return the same order.  A pair's heap key is its highest candidate
    bound plus that margin, minus both chain scores in the order its gain
    subtracts them, so by monotone rounding the key is at least the gain; a
    pair whose key is at most the 1e-9 gain floor gets no entry. *)

(** [score cfg order] evaluates the Ext-TSP objective of a layout.
    [order] is a permutation of all block ids.
    @raise Invalid_argument if [order] is not a permutation. *)
val score : Cfg.t -> int array -> float

(** [layout ?max_chain_split cfg] computes a block order with the entry
    block first.  Chains longer than [max_chain_split] (default 128) are not
    split.  Only the blocks of [cfg] are permuted; callers handle hot/cold
    splitting separately (see {!Hotcold}). *)
val layout : ?max_chain_split:int -> Cfg.t -> int array
