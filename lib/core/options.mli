(** Jump-Start runtime options.

    HHVM exposes every Jump-Start behaviour through runtime options (paper
    §III item 2, §VI); this module mirrors them as a typed record, including
    the "simple configuration option to disable Jump-Start ... as a last
    resort" (§VI). *)

type t = {
  enabled : bool;  (** master switch *)
  bb_layout_opt : bool;  (** §V-A: measured Vasm weights for Ext-TSP *)
  func_sort_opt : bool;  (** §V-B: shipped C3 order from the tier-2 graph *)
  prop_reorder_opt : bool;  (** §V-C: object property reordering *)
  validate_packages : bool;  (** §VI-A.1: seeder self-validation *)
  min_coverage_funcs : int;  (** §VI-B: coverage threshold before publish *)
  min_coverage_entries : int;  (** §VI-B: total profiled entries threshold *)
  max_boot_attempts : int;  (** §VI-A.3: retries before no-Jump-Start fallback *)
  salvage_stale : bool;
      (** §VI-B: salvage fingerprint-mismatched packages through the
          stale-profile matcher instead of rejecting them *)
  salvage_min_match : float;
      (** minimum {!Jit_profile.Stale_match.quality} (fraction of counter
          mass transferred) for a salvaged boot to proceed warm *)
}

(** Everything on, production-like thresholds. *)
val default : t

(** Jump-Start disabled (the paper's baseline tier). *)
val disabled : t

(** Jump-Start on but all three steady-state optimizations off — the
    baseline of paper Fig. 6. *)
val no_steady_state_opts : t
