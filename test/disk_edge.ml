(* Points on the edge of a great-circle disk, for tests of code that
   resolves disk membership. *)

open Rr_geo

let deg = Float.pi /. 180.0

(* The point [miles] along the great circle leaving [c] on [bearing]
   (radians clockwise from north). *)
let destination (c : Coord.t) ~bearing ~miles =
  let d = miles /. Distance.earth_radius_miles in
  let lat1 = c.Coord.lat *. deg and lon1 = c.Coord.lon *. deg in
  let lat2 = asin ((sin lat1 *. cos d) +. (cos lat1 *. sin d *. cos bearing)) in
  let lon2 =
    lon1 +. atan2 (sin bearing *. sin d *. cos lat1) (cos d -. (sin lat1 *. sin lat2))
  in
  Coord.make
    ~lat:(Float.max (-90.0) (Float.min 90.0 (lat2 /. deg)))
    ~lon:(Float.rem ((lon2 /. deg) +. 540.0) 360.0 -. 180.0)

(* Along [bearing], the farthest point found with [miles c p <= radius]
   and the nearest found beyond it, adjacent to within float
   resolution: the disk's edge as the haversine sees it. [None] when the
   whole great circle is inside. *)
let edge_points c ~radius ~bearing =
  let inside t = Distance.miles c (destination c ~bearing ~miles:t) <= radius in
  let hi = Float.pi *. Distance.earth_radius_miles in
  if inside hi then None
  else begin
    let lo = ref 0.0 and hi = ref hi in
    for _ = 1 to 200 do
      let mid = (!lo +. !hi) /. 2.0 in
      if inside mid then lo := mid else hi := mid
    done;
    Some (destination c ~bearing ~miles:!lo, destination c ~bearing ~miles:!hi)
  end
