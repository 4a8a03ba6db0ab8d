(** Wires {!Counters} into the interpreter's tier-1 probes.

    This is the reproduction's analogue of HHVM "JITing profile code":
    attaching the collector to an interpreter turns it into the tier-1
    profiling executor whose counters later feed region formation, inlining
    and all Jump-Start optimizations.  The loop bumps the counters'
    resolved cells itself ({!Interp.Probes.tier1}). *)

(** [probes counters] returns probes that record into [counters]. *)
val probes : Counters.t -> Interp.Probes.t
