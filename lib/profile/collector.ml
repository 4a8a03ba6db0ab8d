let probes counters = Interp.Probes.Tier1 (Counters.recorder counters)
