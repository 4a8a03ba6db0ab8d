module R = Js_util.Rng

type config = {
  base_rps : float;
  diurnal_amplitude : float;
  diurnal_period : float;
  phase : float;
}

let default_config =
  { base_rps = 100.; diurnal_amplitude = 0.; diurnal_period = 86_400.; phase = 0. }

let validate c =
  if c.base_rps <= 0. then invalid_arg "Arrival: base_rps must be positive";
  if c.diurnal_amplitude < 0. || c.diurnal_amplitude >= 1. then
    invalid_arg "Arrival: diurnal_amplitude must be in [0, 1)";
  if c.diurnal_period <= 0. then invalid_arg "Arrival: diurnal_period must be positive";
  if Float.is_nan c.phase then invalid_arg "Arrival: phase must not be NaN"

let rate_at c t =
  c.base_rps
  *. (1.
     +. (c.diurnal_amplitude *. sin (2. *. Float.pi *. (t +. c.phase) /. c.diurnal_period))
     )

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
