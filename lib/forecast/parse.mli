(** Natural-language parsing of NHC public-advisory text (Sec. 4.4).

    Extracts the storm name, advisory number, issuance time, centre
    coordinates ("...LATITUDE 35.2 NORTH...LONGITUDE 76.4 WEST...") and
    the hurricane-force / tropical-storm-force wind radii
    ("...HURRICANE-FORCE WINDS EXTEND OUTWARD UP TO 90 MILES..."). *)

type error =
  | Missing_center
  | Missing_storm_name
  | Malformed of string

val advisory : string -> (Advisory.t, error) result
(** Parse one advisory. Wind radii default to 0 when the corresponding
    sentence is absent (e.g. after downgrade to a tropical storm). Never
    raises: an advisory number that overflows [int], an out-of-range
    centre and a radius too long to be finite are all
    [Error (Malformed _)]. *)

val error_to_string : error -> string
