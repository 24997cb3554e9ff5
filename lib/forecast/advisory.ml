type t = {
  storm : string;
  number : int;
  issued : string;
  center : Rr_geo.Coord.t;
  hurricane_radius_miles : float;
  tropical_radius_miles : float;
}

let make ~storm ~number ~issued ~center ~hurricane_radius_miles
    ~tropical_radius_miles =
  if
    not
      (Float.is_finite hurricane_radius_miles
      && Float.is_finite tropical_radius_miles)
  then invalid_arg "Advisory.make: non-finite wind radius";
  if hurricane_radius_miles < 0.0 || tropical_radius_miles < 0.0 then
    invalid_arg "Advisory.make: negative wind radius";
  if
    hurricane_radius_miles > 0.0 && tropical_radius_miles > 0.0
    && hurricane_radius_miles > tropical_radius_miles
  then invalid_arg "Advisory.make: hurricane radius exceeds tropical radius";
  { storm; number; issued; center; hurricane_radius_miles; tropical_radius_miles }

let pp ppf t =
  Format.fprintf ppf "%s #%d %s center=%a hurr=%.0fmi trop=%.0fmi" t.storm
    t.number t.issued Rr_geo.Coord.pp t.center t.hurricane_radius_miles
    t.tropical_radius_miles
