type error =
  | Missing_center
  | Missing_storm_name
  | Malformed of string

let error_to_string = function
  | Missing_center -> "advisory has no parsable LATITUDE/LONGITUDE sentence"
  | Missing_storm_name -> "advisory has no storm-name header"
  | Malformed msg -> "malformed advisory: " ^ msg

let lat_re =
  Re.compile
    (Re.Pcre.re {|LATITUDE\s+([0-9]+(?:\.[0-9]+)?)\s+(NORTH|SOUTH)|})

let lon_re =
  Re.compile
    (Re.Pcre.re {|LONGITUDE\s+([0-9]+(?:\.[0-9]+)?)\s+(EAST|WEST)|})

let hurricane_re =
  Re.compile
    (Re.Pcre.re
       {|HURRICANE-FORCE\s+WINDS\s+EXTEND\s+OUTWARD\s+UP\s+TO\s+([0-9]+)\s+MILES|})

let tropical_re =
  Re.compile
    (Re.Pcre.re
       {|TROPICAL-STORM-FORCE\s+WINDS\s+EXTEND\s+OUTWARD\s+UP\s+TO\s+([0-9]+)\s+MILES|})

let storm_re =
  Re.compile
    (Re.Pcre.re
       {|(?:HURRICANE|TROPICAL\s+STORM|POST-TROPICAL\s+CYCLONE)\s+([A-Z]+)\s+ADVISORY\s+NUMBER\s+([0-9]+)|})

(* Issuance line, e.g. "1100 AM EDT SAT AUG 27 2011". *)
let issued_re =
  Re.compile
    (Re.Pcre.re
       {|([0-9]{3,4}\s+(?:AM|PM)\s+[A-Z]{3}\s+[A-Z]{3}\s+[A-Z]{3}\s+[0-9]{1,2}\s+[0-9]{4})|})

let first_group re text =
  match Re.exec_opt re text with
  | Some groups -> Some (Re.Group.get groups 1)
  | None -> None

let advisory text =
  let text = String.uppercase_ascii text in
  match Re.exec_opt storm_re text with
  | None -> Error Missing_storm_name
  | Some header -> (
    let storm = Re.Group.get header 1 in
    match
      ( int_of_string_opt (Re.Group.get header 2),
        Re.exec_opt lat_re text,
        Re.exec_opt lon_re text )
    with
    | None, _, _ -> Error (Malformed "advisory number out of range")
    | _, None, _ | _, _, None -> Error Missing_center
    | Some number, Some latg, Some long -> (
      let lat_value = float_of_string (Re.Group.get latg 1) in
      let lat =
        match Re.Group.get latg 2 with
        | "NORTH" -> lat_value
        | _ -> -.lat_value
      in
      let lon_value = float_of_string (Re.Group.get long 1) in
      let lon =
        match Re.Group.get long 2 with
        | "EAST" -> lon_value
        | _ -> -.lon_value
      in
      let radius re =
        match first_group re text with
        | Some miles -> float_of_string miles
        | None -> 0.0
      in
      let issued =
        match first_group issued_re text with
        | Some s -> s
        | None -> "UNKNOWN TIME"
      in
      match
        Advisory.make ~storm ~number ~issued
          ~center:(Rr_geo.Coord.make ~lat ~lon)
          ~hurricane_radius_miles:(radius hurricane_re)
          ~tropical_radius_miles:(radius tropical_re)
      with
      | adv -> Ok adv
      | exception Invalid_argument msg -> Error (Malformed msg)))
