(** Open-loop Poisson arrival process with a diurnal load curve.

    Arrivals are generated by thinning a homogeneous Poisson process at the
    peak rate, so the instantaneous rate follows
    [base_rps * (1 + amplitude * sin (2*pi*(t + phase) / period))] exactly,
    with [t + phase] reduced modulo the period.  Open-loop:
    the offered load does not react to server state, which is what makes
    capacity loss during a push visible as shed requests and latency
    (paper Fig. 1's area-above-the-curve). *)

type config = {
  base_rps : float;  (** mean offered load, requests per second *)
  diurnal_amplitude : float;  (** relative swing, in [\[0, 1)]; 0 = flat *)
  diurnal_period : float;  (** seconds per diurnal cycle *)
  phase : float;
      (** time offset added before the sinusoid: region [r] of a global fleet
          uses [phase = r * period / n_regions] so regional peaks are
          staggered around the clock (follow-the-sun load) *)
}

(** 100 rps, flat, 24 h period, zero phase. *)
val default_config : config

(** Instantaneous offered rate at time [t]. *)
val rate_at : config -> float -> float

(** [base_rps * (1 + amplitude)] — the thinning envelope. *)
val peak_rate : config -> float

type t

(** [create config rng] splits a private stream off [rng].
    @raise Invalid_argument on a non-positive or non-finite rate or period,
    a non-finite phase, or an amplitude outside [\[0, 1)]. *)
val create : config -> Js_util.Rng.t -> t

(** [next t ~after] samples the next arrival time strictly after [after]. *)
val next : t -> after:float -> float
