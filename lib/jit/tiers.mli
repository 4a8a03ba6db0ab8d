(** Execution tiers and their macro cost model.

    HHVM executes each piece of code in one of four ways (paper §II-A):
    interpretation, live (tracelet) translations, profiling translations, and
    optimized (PGO region) translations.  The constants here convert
    bytecode-level work into simulated cycles and machine-code bytes; they
    are calibrated so the fleet-level figures (1, 2, 4) land in the paper's
    regime (e.g. ~500 MB of JITed code, ~90% of peak at point "C").  See
    DESIGN.md §4. *)

type mode = Interp | Live | Profiling | Optimized

(** Simulated CPU cycles to execute one bytecode instruction under a mode.
    The Interp/Optimized ratio (~10x) matches dynamic-language VM folklore
    and drives the warmup latency curves. *)
val cycles_per_instr : mode -> float

(** Machine-code bytes emitted per bytecode byte.  [Interp] emits nothing.
    Profiling translations are the largest (counters, no optimization);
    optimized code is denser. *)
val code_expansion : mode -> float

(** JIT compilation cost, in cycles per bytecode byte, of producing a
    translation.  Optimized (region) compilation is by far the heaviest —
    this is the work Jump-Start moves before request serving and
    parallelizes across cores. *)
val compile_cycles_per_byte : mode -> float

(** Simulated clock of the evaluation servers (1.8 GHz Xeon D-1581). *)
val clock_hz : float
