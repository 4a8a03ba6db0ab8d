(** The Jump-Start profile-data package (paper §IV-B).

    Contents map to the paper's four data categories:
    + {b repo global data}: the preload list of units first touched during
      profiling (our repo keeps strings/arrays in memory, so the unit list
      is the load-bearing part);
    + {b JIT profile data}: the full tier-1 {!Jit_profile.Counters} —
      bytecode block/arc counters, call-target profiles, entry counts — plus
      the property-access table;
    + {b profile data for optimized code}: the measured Vasm-level
      {!Jit.Vasm_profile} collected from instrumented optimized code;
    + {b intermediate JIT results}: the function placement order computed on
      the seeder (C3 over the accurate tier-2 call graph).

    The wire format is framed (magic, version, CRC32) so consumers detect
    truncation/corruption before trusting any content.  Both decodes start
    from one parse of the payload into its sections, with no id checked:
    {!of_bytes} then re-validates every id against the consumer's repo, and
    {!of_bytes_stale} re-anchors them through the embedded match table.
    Neither raises on any input. *)

type meta = {
  region : int;
  bucket : int;
  seeder_id : int;
  n_profiled_funcs : int;
  total_entries : int;
  repo_fingerprint : int;
      (** {!Hhbc.Repo.fingerprint} of the build the seeder profiled; the
          consumer's fingerprint gate rejects packages whose fingerprint
          disagrees with its repo (stale profile from a previous release) *)
  published_at : int;
      (** publish time in whole simulated seconds; the seeder writes 0 and
          no reader consults it, but it stays on the v4 wire *)
}

type t = {
  meta : meta;
  counters : Jit_profile.Counters.t;
  vasm : Jit.Vasm_profile.t;
  func_order : int array;
  preload_units : int array;
}

val magic : string
val version : int

val to_bytes : t -> string

(** [of_bytes repo data] decodes and validates.  Returns [Error _] on bad
    magic/version/CRC, a malformed section, a repo-shape mismatch or any id
    out of range for [repo]. *)
val of_bytes : Hhbc.Repo.t -> string -> (t, string) result

(** [of_bytes_stale repo data] — the §VI-B salvage path for a package whose
    fingerprint does not match [repo] (profiled on a previous code push).
    Parses without checking ids, matches the embedded
    {!Jit_profile.Stale_match.shape} against [repo], and rebuilds
    counters/order/preload/vasm with unmatched or infeasible data dropped.
    A malformed section, including a match table whose block starts do not
    rise from 0 inside the body, is [Error _].  On a byte-identical build
    the result re-serializes to exactly [data].  The caller decides, from
    the returned match {!Jit_profile.Stale_match.stats}, whether quality
    clears {!Options.t.salvage_min_match}. *)
val of_bytes_stale :
  Hhbc.Repo.t -> string -> (t * Jit_profile.Stale_match.stats, string) result

(** [check_coverage t options] — the §VI-B publish gate: enough profiled
    functions and enough total requests behind them. *)
val check_coverage : t -> Options.t -> (unit, string) result

val pp_meta : Format.formatter -> meta -> unit
