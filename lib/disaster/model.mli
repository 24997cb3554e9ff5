(** Spatial generative models for the five disaster catalogues.

    Each kind is a mixture of regional Gaussian components encoding the
    geography of Fig. 4 (hurricanes on the Gulf/Atlantic coasts,
    tornadoes in Tornado + Dixie Alley, storms over the central plains,
    earthquakes in the West plus New Madrid, damaging wind broadly east
    of the Rockies), plus a uniform CONUS background.

    FEMA declarations are recorded at county level and NOAA wind reports
    at towns, so those catalogues are {e two-scale}: a fixed set of
    discrete sites is first drawn from the regional mixture, and events
    then scatter tightly around sites. This is what makes the
    cross-validated bandwidth of a 143,847-event wind catalogue come out
    near 4 miles while a 2,267-event earthquake catalogue comes out near
    300 (Table 1): the bandwidth tracks the within-site scatter when
    events are dense and the between-event spacing when they are
    sparse. *)

type component = {
  center : Rr_geo.Coord.t;
  sigma_miles : float;
  weight : float;
}

type t = {
  kind : Event.kind;
  macro : component array;        (** regional mixture *)
  background : float;             (** uniform-background weight, [0, 1) *)
  cluster_sites : int option;     (** [Some k]: quantise onto [k] discrete sites *)
  site_jitter_miles : float;      (** scatter around a site (county/town scale) *)
  city_anchor : float;
      (** share of sites anchored at gazetteer cities — event records
          concentrate where people are, which is what gives metro PoPs in
          disaster country their elevated risk *)
}

val macro_density : t -> Rr_geo.Coord.t -> float
(** Regional mixture density (per square mile) of the model at a point
    (before site quantisation). *)

val for_kind : Event.kind -> t
(** The calibrated model of each catalogue: the same physical record on
    every call, so that its {!sampler} tables are built once. *)

val month_weights : Event.kind -> float array
(** Twelve seasonal weights (sum 1): hurricanes peak August-October,
    tornadoes April-June, severe storms and wind in the warm half of the
    year, earthquakes uniform. Used to stamp synthetic events with a
    month, enabling the seasonal risk surfaces the paper leaves to future
    work. *)

val sample_month : Rr_util.Prng.t -> Event.kind -> int
(** Draw a month (1-12) from {!month_weights}. *)

val sampler : t -> seed:int64 -> (Rr_util.Prng.t -> Rr_geo.Coord.t)
(** [sampler model ~seed] materialises the model (drawing its site set
    deterministically from [seed]) and returns an event sampler. All
    returned coordinates lie inside {!Rr_geo.Bbox.conus}.

    The tables that do not depend on the seed (the component weights
    and, for site-quantised models, each gazetteer city's anchor weight,
    population times {!macro_density}) are built on the first call for
    a model returned by {!for_kind} and kept for the process, safely
    under concurrent domains; any other model builds them on every
    call. The site draw is per call. *)
