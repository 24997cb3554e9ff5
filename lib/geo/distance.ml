let earth_radius_miles = 3958.761

let miles_per_km = 0.621371

let miles a b =
  let lat1, lon1 = Coord.to_radians a in
  let lat2, lon2 = Coord.to_radians b in
  let dlat = lat2 -. lat1 and dlon = lon2 -. lon1 in
  let s1 = sin (dlat /. 2.0) and s2 = sin (dlon /. 2.0) in
  let h = (s1 *. s1) +. (cos lat1 *. cos lat2 *. s2 *. s2) in
  let h = Float.max 0.0 (Float.min 1.0 h) in
  2.0 *. earth_radius_miles *. asin (sqrt h)

let miles_to_km m = m /. miles_per_km

let km_to_miles k = k *. miles_per_km

let km a b = miles_to_km (miles a b)

let within p ~center ~radius_miles = miles p center <= radius_miles

(* A lat/lon box that contains the whole disk. A great-circle path of
   length r changes latitude by at most r/R radians, and longitude by at
   most r/(R cos phi) where phi is the largest |lat| along it, which
   stays inside the box's own latitude band; the 1% + 0.01 degree margin
   covers the haversine's rounding. Past 89 degrees the box spans every
   longitude. A radius that is not positive has no disk, so its box is
   empty (negative half-widths). *)
type window = { lat_c : float; lat_half : float; lon_c : float; lon_half : float }

let deg = Float.pi /. 180.0

let disk_window ~center ~radius_miles =
  if not (radius_miles > 0.0) then
    { lat_c = 0.0; lat_half = neg_infinity; lon_c = 0.0; lon_half = neg_infinity }
  else begin
    let lat_half = (radius_miles /. earth_radius_miles /. deg *. 1.01) +. 0.01 in
    let top = Float.abs center.Coord.lat +. lat_half in
    let lon_half = if top >= 89.0 then infinity else lat_half /. cos (top *. deg) in
    { lat_c = center.Coord.lat; lat_half; lon_c = center.Coord.lon; lon_half }
  end

let in_disk_window w (p : Coord.t) =
  Float.abs (p.Coord.lat -. w.lat_c) <= w.lat_half
  &&
  let dl = Float.abs (p.Coord.lon -. w.lon_c) in
  Float.min dl (360.0 -. dl) <= w.lon_half
