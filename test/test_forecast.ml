(* The exact advisory excerpt quoted in the paper (Sec. 4.4), with a
   header line added so the storm name can be identified. *)
let paper_excerpt =
  {|BULLETIN
HURRICANE IRENE ADVISORY NUMBER 28
NWS NATIONAL HURRICANE CENTER MIAMI FL
500 AM EDT SAT AUG 27 2011

...THE CENTER OF HURRICANE IRENE WAS LOCATED
NEAR LATITUDE 35.2 NORTH...LONGITUDE 76.4 WEST.
IRENE IS MOVING TOWARD THE NORTH-NORTHEAST
NEAR 15 MPH...HURRICANE-FORCE WINDS EXTEND
OUTWARD UP TO 90 MILES...150 KM...FROM THE CEN-
TER...AND TROPICAL-STORM-FORCE WINDS EXTEND
OUTWARD UP TO 260 MILES...415 KM...|}

(* --- Parse --- *)

let test_parse_paper_excerpt () =
  match Rr_forecast.Parse.advisory paper_excerpt with
  | Error e -> Alcotest.fail (Rr_forecast.Parse.error_to_string e)
  | Ok a ->
    Alcotest.(check string) "storm" "IRENE" a.Rr_forecast.Advisory.storm;
    Alcotest.(check int) "number" 28 a.Rr_forecast.Advisory.number;
    Alcotest.(check (float 1e-9)) "lat" 35.2
      (Rr_geo.Coord.lat a.Rr_forecast.Advisory.center);
    Alcotest.(check (float 1e-9)) "lon" (-76.4)
      (Rr_geo.Coord.lon a.Rr_forecast.Advisory.center);
    Alcotest.(check (float 1e-9)) "hurricane radius" 90.0
      a.Rr_forecast.Advisory.hurricane_radius_miles;
    Alcotest.(check (float 1e-9)) "tropical radius" 260.0
      a.Rr_forecast.Advisory.tropical_radius_miles;
    Alcotest.(check string) "issued" "500 AM EDT SAT AUG 27 2011"
      a.Rr_forecast.Advisory.issued

let test_parse_missing_center () =
  let text = "HURRICANE BOB ADVISORY NUMBER 3\nNO POSITION TODAY" in
  (match Rr_forecast.Parse.advisory text with
  | Error Rr_forecast.Parse.Missing_center -> ()
  | _ -> Alcotest.fail "expected Missing_center");
  match Rr_forecast.Parse.advisory "JUST SOME TEXT" with
  | Error Rr_forecast.Parse.Missing_storm_name -> ()
  | _ -> Alcotest.fail "expected Missing_storm_name"

let test_parse_tropical_storm_header () =
  let text =
    "TROPICAL STORM ZETA ADVISORY NUMBER 7\n\
     THE CENTER OF TROPICAL STORM ZETA WAS LOCATED NEAR LATITUDE 25.0 \
     NORTH...LONGITUDE 80.0 WEST.\n\
     TROPICAL-STORM-FORCE WINDS EXTEND OUTWARD UP TO 120 MILES...195 KM..."
  in
  match Rr_forecast.Parse.advisory text with
  | Ok a ->
    Alcotest.(check string) "storm" "ZETA" a.Rr_forecast.Advisory.storm;
    Alcotest.(check (float 1e-9)) "no hurricane winds" 0.0
      a.Rr_forecast.Advisory.hurricane_radius_miles;
    Alcotest.(check (float 1e-9)) "tropical radius" 120.0
      a.Rr_forecast.Advisory.tropical_radius_miles
  | Error e -> Alcotest.fail (Rr_forecast.Parse.error_to_string e)

let test_parse_lowercase_input () =
  let text = String.lowercase_ascii paper_excerpt in
  match Rr_forecast.Parse.advisory text with
  | Ok a -> Alcotest.(check string) "case-folded" "IRENE" a.Rr_forecast.Advisory.storm
  | Error e -> Alcotest.fail (Rr_forecast.Parse.error_to_string e)

(* Hostile text must come back as a typed error, never an exception. *)
let expect_malformed label text =
  match Rr_forecast.Parse.advisory text with
  | Error (Rr_forecast.Parse.Malformed _) -> ()
  | Error e ->
    Alcotest.failf "%s: expected Malformed, got %s" label
      (Rr_forecast.Parse.error_to_string e)
  | Ok _ -> Alcotest.failf "%s: expected Malformed, got an advisory" label
  | exception e ->
    Alcotest.failf "%s: raised %s" label (Printexc.to_string e)

let test_parse_number_overflow () =
  expect_malformed "advisory number past max_int"
    "HURRICANE BOB ADVISORY NUMBER 99999999999999999999999\n\
     NEAR LATITUDE 25.0 NORTH...LONGITUDE 80.0 WEST."

let test_parse_infinite_radius () =
  let nines = String.make 400 '9' in
  let text force =
    Printf.sprintf
      "HURRICANE BOB ADVISORY NUMBER 3\n\
       NEAR LATITUDE 25.0 NORTH...LONGITUDE 80.0 WEST.\n\
       %s WINDS EXTEND OUTWARD UP TO %s MILES"
      force nines
  in
  expect_malformed "infinite tropical radius" (text "TROPICAL-STORM-FORCE");
  expect_malformed "infinite hurricane radius" (text "HURRICANE-FORCE")

(* --- Advisory validation --- *)

let test_advisory_validation () =
  let center = Rr_geo.Coord.make ~lat:30.0 ~lon:(-80.0) in
  Alcotest.check_raises "negative radius"
    (Invalid_argument "Advisory.make: negative wind radius") (fun () ->
      ignore
        (Rr_forecast.Advisory.make ~storm:"X" ~number:1 ~issued:"t" ~center
           ~hurricane_radius_miles:(-1.0) ~tropical_radius_miles:10.0));
  Alcotest.check_raises "inverted radii"
    (Invalid_argument "Advisory.make: hurricane radius exceeds tropical radius")
    (fun () ->
      ignore
        (Rr_forecast.Advisory.make ~storm:"X" ~number:1 ~issued:"t" ~center
           ~hurricane_radius_miles:200.0 ~tropical_radius_miles:100.0))

let test_advisory_non_finite () =
  let center = Rr_geo.Coord.make ~lat:30.0 ~lon:(-80.0) in
  List.iter
    (fun (label, h, t) ->
      Alcotest.check_raises label
        (Invalid_argument "Advisory.make: non-finite wind radius") (fun () ->
          ignore
            (Rr_forecast.Advisory.make ~storm:"X" ~number:1 ~issued:"t" ~center
               ~hurricane_radius_miles:h ~tropical_radius_miles:t)))
    [
      ("infinite tropical", 0.0, infinity);
      ("infinite hurricane", infinity, infinity);
      ("nan hurricane", Float.nan, 100.0);
    ]

(* --- Render round trip --- *)

let test_render_round_trip () =
  let advisory =
    Rr_forecast.Advisory.make ~storm:"SANDY" ~number:25
      ~issued:"1100 PM EDT SUN OCT 28 2012"
      ~center:(Rr_geo.Coord.make ~lat:33.7 ~lon:(-75.2))
      ~hurricane_radius_miles:85.0 ~tropical_radius_miles:450.0
  in
  match Rr_forecast.Parse.advisory (Rr_forecast.Render.advisory advisory) with
  | Ok back ->
    Alcotest.(check string) "storm" "SANDY" back.Rr_forecast.Advisory.storm;
    Alcotest.(check int) "number" 25 back.Rr_forecast.Advisory.number;
    Alcotest.(check (float 0.051)) "lat" 33.7
      (Rr_geo.Coord.lat back.Rr_forecast.Advisory.center);
    Alcotest.(check (float 0.6)) "hurricane radius" 85.0
      back.Rr_forecast.Advisory.hurricane_radius_miles;
    Alcotest.(check (float 0.6)) "tropical radius" 450.0
      back.Rr_forecast.Advisory.tropical_radius_miles
  | Error e -> Alcotest.fail (Rr_forecast.Parse.error_to_string e)

let round_trip_property =
  let gen =
    QCheck.Gen.(
      map
        (fun (lat, lon, h, extra) ->
          let tropical = if h = 0.0 then 100.0 +. extra else h +. extra in
          Rr_forecast.Advisory.make ~storm:"TEST" ~number:1 ~issued:"500 PM EDT MON JUL 1 2013"
            ~center:(Rr_geo.Coord.make ~lat ~lon)
            ~hurricane_radius_miles:h ~tropical_radius_miles:tropical)
        (quad (float_range 10.0 48.0) (float_range (-120.0) (-60.0))
           (oneofl [ 0.0; 30.0; 60.0; 90.0; 120.0 ])
           (float_range 10.0 400.0)))
  in
  let arb =
    QCheck.make gen ~print:(fun a -> Format.asprintf "%a" Rr_forecast.Advisory.pp a)
  in
  QCheck.Test.make ~name:"render/parse round trip" ~count:200 arb (fun advisory ->
      match Rr_forecast.Parse.advisory (Rr_forecast.Render.advisory advisory) with
      | Error _ -> false
      | Ok back ->
        Float.abs
          (Rr_geo.Coord.lat back.Rr_forecast.Advisory.center
          -. Rr_geo.Coord.lat advisory.Rr_forecast.Advisory.center)
        < 0.051
        && Float.abs
             (back.Rr_forecast.Advisory.hurricane_radius_miles
             -. advisory.Rr_forecast.Advisory.hurricane_radius_miles)
           < 0.6
        && Float.abs
             (back.Rr_forecast.Advisory.tropical_radius_miles
             -. advisory.Rr_forecast.Advisory.tropical_radius_miles)
           < 0.6)

(* --- Track --- *)

let test_track_advisory_counts () =
  Alcotest.(check int) "Irene 70" 70
    (List.length (Rr_forecast.Track.advisories Rr_forecast.Track.irene));
  Alcotest.(check int) "Katrina 61" 61
    (List.length (Rr_forecast.Track.advisories Rr_forecast.Track.katrina));
  Alcotest.(check int) "Sandy 60" 60
    (List.length (Rr_forecast.Track.advisories Rr_forecast.Track.sandy))

let test_track_find () =
  Alcotest.(check bool) "case insensitive" true
    (Rr_forecast.Track.find "sandy" = Some Rr_forecast.Track.sandy);
  Alcotest.(check bool) "unknown" true (Rr_forecast.Track.find "bob" = None)

let test_track_position_interpolation () =
  let storm = Rr_forecast.Track.katrina in
  let before = Rr_forecast.Track.position_at storm (-5.0) in
  Alcotest.(check (float 1e-9)) "clamped to start" 23.2 before.Rr_forecast.Track.lat;
  let way = storm.Rr_forecast.Track.waypoints in
  let first = way.(0) and second = way.(1) in
  let mid_hour = (first.Rr_forecast.Track.hour +. second.Rr_forecast.Track.hour) /. 2.0 in
  let mid = Rr_forecast.Track.position_at storm mid_hour in
  Alcotest.(check (float 1e-6)) "lat midpoint"
    ((first.Rr_forecast.Track.lat +. second.Rr_forecast.Track.lat) /. 2.0)
    mid.Rr_forecast.Track.lat

let test_track_timestamps () =
  (* Oct 22 2012 was a Monday; 60 advisories at 3 h end Oct 29 (Monday). *)
  Alcotest.(check string) "first Sandy advisory" "1100 AM EDT MON OCT 22 2012"
    (Rr_forecast.Track.timestamp Rr_forecast.Track.sandy ~tick:0);
  Alcotest.(check string) "last Sandy advisory" "800 PM EDT MON OCT 29 2012"
    (Rr_forecast.Track.timestamp Rr_forecast.Track.sandy ~tick:59);
  (* month rollover: Katrina started Aug 23 2005 (Tuesday) *)
  Alcotest.(check string) "first Katrina advisory" "500 PM EDT TUE AUG 23 2005"
    (Rr_forecast.Track.timestamp Rr_forecast.Track.katrina ~tick:0)

let test_track_radii_round_trip_through_text () =
  (* advisories go through render+parse: radii must stay consistent *)
  List.iter
    (fun (a : Rr_forecast.Advisory.t) ->
      if a.Rr_forecast.Advisory.hurricane_radius_miles > 0.0 then
        Alcotest.(check bool) "hurricane <= tropical" true
          (a.Rr_forecast.Advisory.hurricane_radius_miles
          <= a.Rr_forecast.Advisory.tropical_radius_miles))
    (Rr_forecast.Track.advisories Rr_forecast.Track.sandy)

let test_track_katrina_gulf_landfall () =
  (* Katrina's centre must pass within 100 miles of New Orleans *)
  let advisories = Rr_forecast.Track.advisories Rr_forecast.Track.katrina in
  let nola = Rr_geo.Coord.make ~lat:29.95 ~lon:(-90.07) in
  let closest =
    List.fold_left
      (fun acc (a : Rr_forecast.Advisory.t) ->
        Float.min acc (Rr_geo.Distance.miles a.Rr_forecast.Advisory.center nola))
      infinity advisories
  in
  Alcotest.(check bool) "passes New Orleans" true (closest < 100.0)

(* --- Riskfield --- *)

let advisory_at lat lon hurricane tropical =
  Rr_forecast.Advisory.make ~storm:"T" ~number:1 ~issued:"t"
    ~center:(Rr_geo.Coord.make ~lat ~lon) ~hurricane_radius_miles:hurricane
    ~tropical_radius_miles:tropical

let test_riskfield_rings () =
  let a = advisory_at 30.0 (-90.0) 50.0 200.0 in
  let at miles = Rr_geo.Coord.make ~lat:(30.0 +. (miles /. 69.0)) ~lon:(-90.0) in
  Alcotest.(check (float 1e-9)) "inside hurricane ring" 100.0
    (Rr_forecast.Riskfield.risk_at a (at 20.0));
  Alcotest.(check (float 1e-9)) "inside tropical ring" 50.0
    (Rr_forecast.Riskfield.risk_at a (at 120.0));
  Alcotest.(check (float 1e-9)) "outside" 0.0
    (Rr_forecast.Riskfield.risk_at a (at 300.0))

let test_riskfield_custom_rho () =
  let a = advisory_at 30.0 (-90.0) 50.0 200.0 in
  let p = Rr_geo.Coord.make ~lat:30.1 ~lon:(-90.0) in
  Alcotest.(check (float 1e-9)) "custom rho" 7.0
    (Rr_forecast.Riskfield.risk_at ~rho_tropical:3.0 ~rho_hurricane:7.0 a p)

let test_riskfield_no_wind_radii () =
  let a = advisory_at 30.0 (-90.0) 0.0 0.0 in
  Alcotest.(check (float 1e-9)) "no risk without radii" 0.0
    (Rr_forecast.Riskfield.risk_at a (Rr_geo.Coord.make ~lat:30.0 ~lon:(-90.0)))

let test_scope_counting () =
  let zoo = Rr_topology.Zoo.shared () in
  let telepak = Option.get (Rr_topology.Zoo.find zoo "Telepak") in
  (* giant disc over the Gulf catches Telepak; nothing in a zero-radius one *)
  let big = advisory_at 31.0 (-89.5) 150.0 400.0 in
  Alcotest.(check bool) "PoPs in scope" true
    (Rr_forecast.Riskfield.pops_in_scope big telepak > 0);
  Alcotest.(check bool) "hurricane scope smaller" true
    (Rr_forecast.Riskfield.pops_in_hurricane_scope big telepak
    <= Rr_forecast.Riskfield.pops_in_scope big telepak);
  let empty = advisory_at 31.0 (-89.5) 0.0 0.0 in
  Alcotest.(check int) "zero scope" 0
    (Rr_forecast.Riskfield.pops_in_scope empty telepak)

let test_scope_fraction_bounds () =
  let zoo = Rr_topology.Zoo.shared () in
  let telepak = Option.get (Rr_topology.Zoo.find zoo "Telepak") in
  let advisories = Rr_forecast.Track.advisories Rr_forecast.Track.katrina in
  let fraction = Rr_forecast.Riskfield.scope_fraction advisories telepak in
  Alcotest.(check bool) "in [0, 1]" true (fraction >= 0.0 && fraction <= 1.0);
  (* Katrina crossed Mississippi: Telepak must be heavily in scope *)
  Alcotest.(check bool) "Telepak exposed to Katrina" true (fraction > 0.2)

let test_union_scope_max () =
  let a1 = advisory_at 30.0 (-90.0) 50.0 200.0 in
  let a2 = advisory_at 32.0 (-90.0) 50.0 200.0 in
  let p = Rr_geo.Coord.make ~lat:30.0 ~lon:(-90.0) in
  Alcotest.(check (float 1e-9)) "max across advisories" 100.0
    (Rr_forecast.Riskfield.union_scope [ a2; a1 ] p)

(* --- Riskfield.diff: sparse advisory-tick deltas --- *)

let level3_coords () =
  let net =
    Option.get (Rr_topology.Zoo.find (Rr_topology.Zoo.shared ()) "Level3")
  in
  Array.map
    (fun (p : Rr_topology.Pop.t) -> p.Rr_topology.Pop.coord)
    net.Rr_topology.Net.pops

let sandy_advisory i =
  List.nth (Rr_forecast.Track.advisories Rr_forecast.Track.sandy) i

let bits = Int64.bits_of_float

let test_diff_empty_cases () =
  let coords = level3_coords () in
  let module R = Rr_forecast.Riskfield in
  let check_empty label (d : R.delta) =
    Alcotest.(check int) (label ^ ": no indices") 0 (Array.length d.R.indices);
    Alcotest.(check int) (label ^ ": no values") 0 (Array.length d.R.values);
    Alcotest.(check bool) (label ^ ": no bbox") true (d.R.bbox = None)
  in
  check_empty "none -> none" (R.diff ~prev:None ~next:None coords);
  let a = sandy_advisory 40 in
  check_empty "same advisory" (R.diff ~prev:(Some a) ~next:(Some a) coords);
  (* Sandy's first advisories sit far offshore: the field over a CONUS
     net is all-zero on both sides, so the delta is empty even though
     the advisories differ. This is what lets the engine keep every
     cached tree across offshore ticks. *)
  check_empty "offshore tick"
    (R.diff ~prev:(Some (sandy_advisory 0)) ~next:(Some (sandy_advisory 1))
       coords)

let test_diff_roundtrip_bitwise () =
  let coords = level3_coords () in
  let module R = Rr_forecast.Riskfield in
  let prev = sandy_advisory 40 and next = sandy_advisory 41 in
  let old_field = Array.map (fun c -> R.risk_at prev c) coords in
  let new_field = Array.map (fun c -> R.risk_at next c) coords in
  let d = R.diff ~prev:(Some prev) ~next:(Some next) coords in
  Alcotest.(check bool) "landfall tick: delta non-empty" true
    (Array.length d.R.indices > 0);
  Alcotest.(check int) "one value per index" (Array.length d.R.indices)
    (Array.length d.R.values);
  (* Indices strictly increasing, each a genuine bitwise change. *)
  Array.iteri
    (fun j i ->
      if j > 0 && d.R.indices.(j - 1) >= i then
        Alcotest.failf "indices not strictly increasing at %d" j;
      if bits old_field.(i) = bits new_field.(i) then
        Alcotest.failf "index %d reported but unchanged" i;
      if bits d.R.values.(j) <> bits new_field.(i) then
        Alcotest.failf "value at %d is not the new field value" i)
    d.R.indices;
  (* Applying the delta to the old field reproduces the new one
     bit-for-bit — the property Env.patch relies on. *)
  let patched = Array.copy old_field in
  Array.iteri (fun j i -> patched.(i) <- d.R.values.(j)) d.R.indices;
  Array.iteri
    (fun i v ->
      if bits v <> bits new_field.(i) then
        Alcotest.failf "patched field diverges at %d" i)
    patched;
  (* The bbox is a tight cover of the changed points. *)
  match d.R.bbox with
  | None -> Alcotest.fail "non-empty delta must carry a bbox"
  | Some b ->
    Array.iter
      (fun i ->
        if not (Rr_geo.Bbox.contains b coords.(i)) then
          Alcotest.failf "changed point %d outside bbox" i)
      d.R.indices

let test_diff_field_matches_diff () =
  let coords = level3_coords () in
  let module R = Rr_forecast.Riskfield in
  let prev = sandy_advisory 41 and next = sandy_advisory 42 in
  let old_field = Array.map (fun c -> R.risk_at prev c) coords in
  let via_advisories = R.diff ~prev:(Some prev) ~next:(Some next) coords in
  let via_field = R.diff_field ~old_field ~next:(Some next) coords in
  Alcotest.(check (array int)) "same indices" via_advisories.R.indices
    via_field.R.indices;
  Array.iteri
    (fun j v ->
      if bits v <> bits via_field.R.values.(j) then
        Alcotest.failf "diff/diff_field values disagree at %d" j)
    via_advisories.R.values

(* The literal full scan [diff_field] must agree with: [risk_at] at
   every point, a bitwise compare, a tight bbox. *)
let full_scan ~old_field ~next coords =
  let changed = ref [] in
  Array.iteri
    (fun i p ->
      let v =
        match next with
        | None -> 0.0
        | Some a -> Rr_forecast.Riskfield.risk_at a p
      in
      if bits v <> bits old_field.(i) then changed := (i, v, p) :: !changed)
    coords;
  let changed = List.rev !changed in
  ( Array.of_list (List.map (fun (i, _, _) -> i) changed),
    Array.of_list (List.map (fun (_, v, _) -> v) changed),
    match changed with
    | [] -> None
    | _ -> Some (Rr_geo.Bbox.of_coords (List.map (fun (_, _, p) -> p) changed)) )

let diff_case_gen =
  let open QCheck.Gen in
  let coord lat lon =
    Rr_geo.Coord.make
      ~lat:(Float.max (-90.0) (Float.min 90.0 lat))
      ~lon:(if lon > 180.0 then lon -. 360.0 else if lon < -180.0 then lon +. 360.0 else lon)
  in
  let anywhere = map2 coord (float_range (-90.0) 90.0) (float_range (-180.0) 180.0) in
  let polar =
    map3
      (fun north lat lon -> coord (if north then lat else -.lat) lon)
      bool (float_range 84.0 90.0) (float_range (-180.0) 180.0)
  in
  let antimeridian =
    map3
      (fun east lat lon -> coord lat (if east then lon else -.lon))
      bool (float_range (-90.0) 90.0) (float_range 174.0 180.0)
  in
  let center = oneof [ anywhere; polar; antimeridian ] in
  let near (c : Rr_geo.Coord.t) =
    map2
      (fun dlat dlon -> coord (c.Rr_geo.Coord.lat +. dlat) (c.Rr_geo.Coord.lon +. dlon))
      (float_range (-12.0) 12.0) (float_range (-40.0) 40.0)
  in
  let radii =
    oneof
      [
        return (0.0, 0.0);
        map (fun h -> (h, 0.0)) (float_range 1.0 400.0);
        map (fun t -> (0.0, t)) (float_range 1.0 700.0);
        map2 (fun h extra -> (h, h +. extra)) (float_range 1.0 300.0)
          (float_range 0.0 500.0);
        map (fun t -> (0.0, t)) (float_range 6000.0 14000.0);
      ]
  in
  let advisory =
    map2
      (fun c (h, t) ->
        Rr_forecast.Advisory.make ~storm:"T" ~number:1 ~issued:"t" ~center:c
          ~hurricane_radius_miles:h ~tropical_radius_miles:t)
      center radii
  in
  advisory >>= fun a ->
  advisory >>= fun prev ->
  let c = a.Rr_forecast.Advisory.center in
  let point = oneof [ anywhere; polar; antimeridian; near c; near c ] in
  list_size (int_range 1 60) point >>= fun pts ->
  let coords = Array.of_list pts in
  (* Old fields mix the previous advisory's field with -0.0 and stale
     non-zero values wherever they fall, far from the disk included. *)
  let old_value p =
    frequency
      [
        (4, return (Rr_forecast.Riskfield.risk_at prev p));
        (3, return 0.0);
        (1, return (-0.0));
        (1, oneofl [ 50.0; 100.0; 7.25 ]);
      ]
  in
  let rec olds acc = function
    | [] -> return (Array.of_list (List.rev acc))
    | p :: rest -> old_value p >>= fun v -> olds (v :: acc) rest
  in
  olds [] pts >>= fun old_field ->
  map (fun none -> (old_field, (if none then None else Some a), coords))
    (frequencyl [ (1, true); (5, false) ])

let diff_field_property =
  let print (old_field, next, coords) =
    Printf.sprintf "next=%s\n%s"
      (match next with
      | None -> "None"
      | Some a -> Format.asprintf "%a" Rr_forecast.Advisory.pp a)
      (String.concat "\n"
         (Array.to_list
            (Array.mapi
               (fun i p ->
                 Printf.sprintf "%d %.17g %.17g old=%h" i p.Rr_geo.Coord.lat
                   p.Rr_geo.Coord.lon old_field.(i))
               coords)))
  in
  QCheck.Test.make ~name:"diff_field = full scan (indices, bits, bbox)"
    ~count:1000 (QCheck.make diff_case_gen ~print)
    (fun (old_field, next, coords) ->
      let d = Rr_forecast.Riskfield.diff_field ~old_field ~next coords in
      let indices, values, bbox = full_scan ~old_field ~next coords in
      d.Rr_forecast.Riskfield.indices = indices
      && Array.for_all2
           (fun a b -> bits a = bits b)
           d.Rr_forecast.Riskfield.values values
      && d.Rr_forecast.Riskfield.bbox = bbox)

let () =
  Alcotest.run "rr_forecast"
    [
      ( "parse",
        [
          Alcotest.test_case "paper excerpt" `Quick test_parse_paper_excerpt;
          Alcotest.test_case "missing pieces" `Quick test_parse_missing_center;
          Alcotest.test_case "tropical storm header" `Quick test_parse_tropical_storm_header;
          Alcotest.test_case "lower-case input" `Quick test_parse_lowercase_input;
          Alcotest.test_case "advisory number overflow" `Quick
            test_parse_number_overflow;
          Alcotest.test_case "infinite radius" `Quick test_parse_infinite_radius;
        ] );
      ( "advisory",
        [
          Alcotest.test_case "validation" `Quick test_advisory_validation;
          Alcotest.test_case "non-finite radii" `Quick test_advisory_non_finite;
        ] );
      ( "render",
        [
          Alcotest.test_case "round trip" `Quick test_render_round_trip;
          QCheck_alcotest.to_alcotest round_trip_property;
        ] );
      ( "track",
        [
          Alcotest.test_case "advisory counts" `Quick test_track_advisory_counts;
          Alcotest.test_case "find" `Quick test_track_find;
          Alcotest.test_case "interpolation" `Quick test_track_position_interpolation;
          Alcotest.test_case "timestamps" `Quick test_track_timestamps;
          Alcotest.test_case "radii consistency" `Quick test_track_radii_round_trip_through_text;
          Alcotest.test_case "Katrina Gulf landfall" `Quick test_track_katrina_gulf_landfall;
        ] );
      ( "riskfield",
        [
          Alcotest.test_case "rings" `Quick test_riskfield_rings;
          Alcotest.test_case "custom rho" `Quick test_riskfield_custom_rho;
          Alcotest.test_case "no radii" `Quick test_riskfield_no_wind_radii;
          Alcotest.test_case "scope counting" `Quick test_scope_counting;
          Alcotest.test_case "scope fraction" `Quick test_scope_fraction_bounds;
          Alcotest.test_case "union scope" `Quick test_union_scope_max;
        ] );
      ( "diff",
        [
          Alcotest.test_case "empty cases" `Quick test_diff_empty_cases;
          Alcotest.test_case "roundtrip bitwise" `Quick
            test_diff_roundtrip_bitwise;
          Alcotest.test_case "diff_field consistency" `Quick
            test_diff_field_matches_diff;
          QCheck_alcotest.to_alcotest diff_field_property;
        ] );
    ]
