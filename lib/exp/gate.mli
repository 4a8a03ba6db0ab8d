(** Significance-gated bench criteria: paired same-seed A/B comparisons
    with bootstrap confidence intervals, after the hxhx bench-gate
    discipline (explicit pass rules, recorded baselines) — the antidote to
    asserting a point estimate from one seed.  Thresholds are constants at
    each call site; no environment variable loosens a gate.

    A gate built on {!compare_paired} + {!pass} fails {e only on a
    statistically significant regression}: the whole effect CI must clear
    the practical-significance band.  Benches that claim a win instead
    require {!verdict} = [Improved] — the CI must clear the band on the
    other side. *)

type verdict =
  | Improved  (** CI entirely below [-min_effect]: significantly better *)
  | Indistinguishable  (** CI overlaps the practical-significance band *)
  | Regressed  (** CI entirely above [+min_effect]: significantly worse *)

val verdict_to_string : verdict -> string

type comparison = {
  metric : string;
  n : int;  (** number of seed pairs *)
  baseline_mean : float;
  candidate_mean : float;
  effect : float;
      (** mean paired relative effect, (candidate - baseline) / |baseline|
          per seed; positive = candidate larger = worse for the
          lower-is-better metrics gates use *)
  ci : float * float;  (** bootstrap CI of [effect] *)
  min_effect : float;  (** the practical-significance band's half-width *)
  verdict : verdict;
}

(** [compare_paired ~metric ~baseline ~candidate ()] — index [i] of both
    arrays must come from the {e same} replicate seed (pairing removes the
    between-seed variance).  [min_effect] defaults to 0.01 (1%); [replicates]
    1000, [confidence] 0.95, bootstrap [seed] fixed — the comparison is
    deterministic.  A single pair degenerates to a point CI (its verdict is
    then just a thresholded point estimate).
    @raise Invalid_argument on empty or mismatched arrays or a negative
    [min_effect]. *)
val compare_paired :
  ?replicates:int ->
  ?confidence:float ->
  ?min_effect:float ->
  ?seed:int ->
  metric:string ->
  baseline:float array ->
  candidate:float array ->
  unit ->
  comparison

(** [pass c] — [true] unless [c.verdict = Regressed]. *)
val pass : comparison -> bool

val pp : Format.formatter -> comparison -> unit
