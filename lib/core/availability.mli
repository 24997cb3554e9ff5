(** Availability accounting: turning strike statistics into "nines".

    The paper's introduction motivates everything with the five-nines
    SLA (99.999% availability, ~26 seconds of downtime per 30 days).
    This module closes the loop: combining the disaster-strike rate
    implied by the historical catalogue (events per year over 1970-2010)
    with a mean-time-to-repair, it converts the Monte Carlo hit
    probabilities of {!Outagesim} into expected annual downtime and
    achieved availability per routing posture. *)

type result = {
  pairs : int;
  events_per_year : float;   (** strike rate implied by the catalogue *)
  mttr_hours : float;
  shortest : float;          (** availability with static shortest paths *)
  riskroute : float;         (** availability with static RiskRoute paths *)
  reactive : float;          (** availability with reactive reconvergence *)
}

val nines : float -> float
(** [nines 0.99999 = 5.0]; [infinity] for perfect availability. *)

val downtime_minutes_per_year : float -> float
(** Annual downtime implied by an availability figure. *)

val run :
  ?rng:Rr_util.Prng.t -> ?samples:int -> ?pair_cap:int ->
  ?mttr_hours:float -> ?radius_miles:float -> ?kind:Rr_disaster.Event.kind ->
  Env.t -> result
(** Monte Carlo estimate (defaults: 400 strike samples, 150 pairs, 12 h
    MTTR, 80-mile damage radius, hurricane strikes). Expected downtime of
    a pair is [rate * P(strike takes its path down) * MTTR]; endpoint
    failures count against every posture. The reactive posture takes
    one {!Outagesim.strike_labels} labelling per strike that fails a
    PoP and one label comparison per pair, bitwise equal to a masked
    single-pair search per (strike, pair). Static routes and strikes
    are evaluated on the {!Rr_util.Parallel} pool and tallied in strike
    order, so the result is bit-identical at any pool size. Raises
    [Invalid_argument]
    when [mttr_hours] or [radius_miles] is not a positive finite
    number. *)
