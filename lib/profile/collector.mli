(** Wires {!Counters} into interpreter {!Interp.Probes}.

    This is the reproduction's analogue of HHVM "JITing profile code":
    attaching the collector to an interpreter turns it into the tier-1
    profiling executor whose counters later feed region formation, inlining
    and all Jump-Start optimizations. *)

(** [probes counters] returns probes that record into [counters]. *)
val probes : Counters.t -> Interp.Probes.t
