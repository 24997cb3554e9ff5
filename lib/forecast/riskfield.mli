(** Forecasted outage risk [o_f] (Sec. 5.3).

    Given an advisory, a location is at risk [rho_h] when inside the
    hurricane-force wind radius, [rho_t] when inside the
    tropical-storm-force radius, and 0 otherwise. Section 7 uses
    [rho_t = 50] and [rho_h = 100]. *)

val default_rho_tropical : float
(** 50. *)

val default_rho_hurricane : float
(** 100. *)

val risk_at :
  ?rho_tropical:float -> ?rho_hurricane:float -> Advisory.t ->
  Rr_geo.Coord.t -> float

val pop_risks :
  ?rho_tropical:float -> ?rho_hurricane:float -> Advisory.t ->
  Rr_topology.Net.t -> float array
(** [o_f] per PoP id. *)

val pops_in_scope : Advisory.t -> Rr_topology.Net.t -> int
(** PoPs inside the tropical-storm-force radius ("in the scope" of the
    event, the paper's phrase). *)

val pops_in_hurricane_scope : Advisory.t -> Rr_topology.Net.t -> int

val scope_fraction : Advisory.t list -> Rr_topology.Net.t -> float
(** Fraction of the network's PoPs that are inside the tropical radius at
    {e any} advisory of the event — the ">20% of their PoPs" filter of
    Sec. 7.3.1. *)

val union_scope : Advisory.t list -> Rr_geo.Coord.t -> float
(** Final geographic scope of an event (Fig. 6): the maximum per-advisory
    risk at the point across the advisory sequence (default rho values). *)

(** {1 Advisory-tick deltas}

    Consecutive advisories perturb [o_f] only near the storm; the rest
    of the field is bit-for-bit unchanged. A {!delta} captures exactly
    the changed entries, which is what lets the engine patch an existing
    environment ([Riskroute.Env.patch]) instead of rebuilding it. *)

type delta = {
  indices : int array;  (** changed point indices, strictly increasing *)
  values : float array;  (** the new [o_f] value per changed index *)
  bbox : Rr_geo.Bbox.t option;
      (** tight bounding box around the changed points — the
          "where did the field move" summary; [None] when nothing
          changed *)
}

val empty_delta : delta

val diff :
  ?rho_tropical:float ->
  ?rho_hurricane:float ->
  prev:Advisory.t option ->
  next:Advisory.t option ->
  Rr_geo.Coord.t array ->
  delta
(** Sparse field delta between two consecutive ticks over a fixed point
    set ([None] means "no advisory", i.e. the all-zero field). An entry
    is reported when the new value differs {e bitwise} from the old —
    the same notion of change the engine's fingerprint caches key on. *)

val diff_field :
  ?rho_tropical:float ->
  ?rho_hurricane:float ->
  old_field:float array ->
  next:Advisory.t option ->
  Rr_geo.Coord.t array ->
  delta
(** Like {!diff} but against a materialised previous field (e.g.
    [Riskroute.Env.forecast] of the environment being patched), so the
    comparison is exactly against what the consumer currently holds.

    The contract is the full scan's: the indices, the bitwise values and
    the bbox are those of evaluating {!risk_at} at every point. It is
    evaluated only at points whose old value is not bitwise [+0.0] and
    at points inside {!Rr_geo.Distance.disk_window} of [next]'s centre
    and largest positive radius (none when [next] is [None] or has no
    positive radius). That window holds every point within the radius,
    and outside the disk [risk_at] is the literal [0.0], so every other
    point is [+0.0] on both sides and costs two compares: a tick costs
    its storm's footprint plus the old field's non-zero points. The
    [forecast.diff_evaluated] counter records how many points were
    evaluated; each call runs under a [forecast.diff_field] span. *)
