(** Great-circle distances in statute miles.

    The paper's bit-miles ("air miles", Level 3 traffic-exchange policy)
    and all kernel bandwidths (Table 1) are in miles, so miles are the
    native unit throughout this code base. *)

val earth_radius_miles : float
(** Mean Earth radius, 3958.761 miles. *)

val miles : Coord.t -> Coord.t -> float
(** Haversine great-circle distance. *)

val km : Coord.t -> Coord.t -> float
(** Same distance in kilometres (for display only). *)

val miles_to_km : float -> float
val km_to_miles : float -> float

val within : Coord.t -> center:Coord.t -> radius_miles:float -> bool
(** [within p ~center ~radius_miles] tests disc membership — the wind-radius
    test of the forecast risk field. *)

(** {1 Disk windows}

    A cheap pre-test for disc membership: two compares per point reject
    everything far outside a disk, so a scan over many points pays
    {!miles} only near it. *)

type window
(** A conservative lat/lon box around one disk. *)

val disk_window : center:Coord.t -> radius_miles:float -> window
(** The box around the disk of [radius_miles] about [center]. Its
    contract: every point [p] with [miles center p <= radius_miles] is
    in the window, so a point outside it is outside the disk without
    evaluating the distance. The box pads the latitude band by 1% plus
    0.01 degrees for the haversine's rounding, widens the longitude
    band by the cosine of the band's highest latitude, handles the
    antimeridian, and spans every longitude once the band passes 89
    degrees. A radius that is not positive (or NaN) gives the empty
    window, which no point is in. *)

val in_disk_window : window -> Coord.t -> bool
(** Whether a point lies in the window (not necessarily in the disk). *)
