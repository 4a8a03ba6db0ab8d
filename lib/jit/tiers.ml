type mode = Interp | Live | Profiling | Optimized

let cycles_per_instr = function
  | Interp -> 42.
  | Live -> 11.
  | Profiling -> 11.5
  | Optimized -> 4.2

let code_expansion = function
  | Interp -> 0.
  | Live -> 3.4
  | Profiling -> 3.8
  | Optimized -> 2.9

let compile_cycles_per_byte = function
  | Interp -> 0.
  | Live -> 2_000.
  | Profiling -> 3_500.
  | Optimized -> 45_000.

let clock_hz = 1.8e9
