module R = Js_util.Rng

type config = {
  base_rps : float;
  diurnal_amplitude : float;
  diurnal_period : float;
  phase : float;
}

let default_config =
  { base_rps = 100.; diurnal_amplitude = 0.; diurnal_period = 86_400.; phase = 0. }

(* A NaN fails every comparison, so each check is written to reject it:
   a NaN or infinite rate would stall [next]'s thinning loop. *)
let validate c =
  if not (c.base_rps > 0.) then invalid_arg "Arrival: base_rps must be positive";
  if c.base_rps = Float.infinity then invalid_arg "Arrival: base_rps must be finite";
  if not (c.diurnal_amplitude >= 0. && c.diurnal_amplitude < 1.) then
    invalid_arg "Arrival: diurnal_amplitude must be in [0, 1)";
  if not (Float.is_finite c.diurnal_period && c.diurnal_period > 0.) then
    invalid_arg "Arrival: diurnal_period must be positive and finite";
  if not (Float.is_finite c.phase) then invalid_arg "Arrival: phase must be finite"

(* [t] and [phase] are each reduced to one period before scaling, so the
   sinusoid's argument stays in (-4 pi, 4 pi) for every finite input;
   [2 pi (t + phase) / period] overflows to infinity (and the rate to NaN)
   for a phase near [max_float] or a period near the subnormals. *)
let rate_at c t =
  let p = c.diurnal_period in
  let cycles = (Float.rem t p /. p) +. (Float.rem c.phase p /. p) in
  c.base_rps *. (1. +. (c.diurnal_amplitude *. sin (2. *. Float.pi *. cycles)))

let peak_rate c = c.base_rps *. (1. +. c.diurnal_amplitude)

type t = { config : config; rng : R.t }

let create config rng =
  validate config;
  { config; rng = R.split rng }

(* Thinning (Lewis-Shedler): candidate arrivals from a homogeneous Poisson
   process at the peak rate, each kept with probability rate(t)/peak.  A
   loop rather than a local recursive function, which would allocate a
   closure per call. *)
let next t ~after =
  let peak = peak_rate t.config in
  let at = ref (after +. R.exponential t.rng ~mean:(1. /. peak)) in
  if t.config.diurnal_amplitude <> 0. then
    while not (R.float t.rng 1. < rate_at t.config !at /. peak) do
      at := !at +. R.exponential t.rng ~mean:(1. /. peak)
    done;
  !at
