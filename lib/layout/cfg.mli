(** Weighted control-flow graphs for code-layout optimizations.

    This representation is deliberately independent of Vasm/bytecode: the
    layout algorithms (Ext-TSP, hot/cold splitting) operate on any weighted
    CFG, mirroring how HHVM applies them at the very end of its pipeline. *)

type block = {
  id : int;
  size : int;  (** code bytes *)
  weight : float;  (** execution count *)
}

type arc = {
  src : int;
  dst : int;
  weight : float;  (** taken count of the jump [src -> dst] *)
}

type t

(** [create ~blocks ~arcs ~entry] validates the graph and builds it.
    [blocks] must be indexed by id ([blocks.(i).id = i]).  Sizes must be
    non-negative and every block and arc weight finite and non-negative:
    {!Exttsp}'s pruning is sound only on such counts.
    @raise Invalid_argument on dangling arc endpoints, misindexed blocks, a
    negative size, or a NaN, infinite or negative weight. *)
val create : blocks:block array -> arcs:arc array -> entry:int -> t

val blocks : t -> block array
val arcs : t -> arc array
val entry : t -> int

val n_blocks : t -> int

(** Successor arcs of a block, grouped once at creation. *)
val succs : t -> int -> arc list

val pp : Format.formatter -> t -> unit
