open Rr_geo

let coord lat lon = Coord.make ~lat ~lon

let nyc = coord 40.71 (-74.01)
let la = coord 34.05 (-118.24)
let boston = coord 42.36 (-71.06)
let chicago = coord 41.88 (-87.63)

(* --- Coord --- *)

let test_coord_validation () =
  Alcotest.check_raises "lat too big" (Invalid_argument "Coord.make: latitude out of range")
    (fun () -> ignore (coord 91.0 0.0));
  Alcotest.check_raises "lon too big" (Invalid_argument "Coord.make: longitude out of range")
    (fun () -> ignore (coord 0.0 200.0));
  Alcotest.check_raises "nan lat" (Invalid_argument "Coord.make: latitude out of range")
    (fun () -> ignore (coord Float.nan 0.0))

let test_coord_accessors () =
  Alcotest.(check (float 1e-9)) "lat" 40.71 (Coord.lat nyc);
  Alcotest.(check (float 1e-9)) "lon" (-74.01) (Coord.lon nyc)

let test_coord_equal_compare () =
  Alcotest.(check bool) "equal" true (Coord.equal nyc (coord 40.71 (-74.01)));
  Alcotest.(check bool) "not equal" false (Coord.equal nyc la);
  Alcotest.(check int) "ordering" (-1) (compare (Coord.compare la nyc) 0)

let test_midpoint () =
  let m = Coord.midpoint nyc la in
  Alcotest.(check bool) "between lats" true
    (Coord.lat m > 34.0 && Coord.lat m < 41.0);
  Alcotest.(check bool) "between lons" true
    (Coord.lon m > -118.3 && Coord.lon m < -74.0);
  (* midpoint is equidistant *)
  let d1 = Distance.miles nyc m and d2 = Distance.miles m la in
  Alcotest.(check (float 1.0)) "equidistant" d1 d2

let test_interpolate_endpoints () =
  Alcotest.(check bool) "f=0" true (Coord.equal (Coord.interpolate nyc la 0.0) nyc);
  let at_one = Coord.interpolate nyc la 1.0 in
  Alcotest.(check bool) "f=1 close to target" true (Distance.miles at_one la < 0.5)

let test_interpolate_same_point () =
  let p = Coord.interpolate nyc nyc 0.5 in
  Alcotest.(check bool) "degenerate" true (Coord.equal p nyc)

let test_pp () =
  Alcotest.(check string) "format" "(40.71N, 74.01W)" (Coord.to_string nyc)

(* --- Distance --- *)

let test_known_distances () =
  (* published great-circle distances, within ~1% *)
  Alcotest.(check bool) "NYC-LA ~2445 mi" true
    (Float.abs (Distance.miles nyc la -. 2445.0) < 30.0);
  Alcotest.(check bool) "NYC-Boston ~190 mi" true
    (Float.abs (Distance.miles nyc boston -. 190.0) < 8.0);
  Alcotest.(check bool) "NYC-Chicago ~710 mi" true
    (Float.abs (Distance.miles nyc chicago -. 713.0) < 15.0)

let test_distance_zero_symmetric () =
  Alcotest.(check (float 1e-9)) "zero" 0.0 (Distance.miles nyc nyc);
  Alcotest.(check (float 1e-6)) "symmetric" (Distance.miles nyc la)
    (Distance.miles la nyc)

let test_km_conversion () =
  Alcotest.(check (float 0.01)) "round trip" 100.0
    (Distance.km_to_miles (Distance.miles_to_km 100.0))

let test_within () =
  Alcotest.(check bool) "inside" true
    (Distance.within boston ~center:nyc ~radius_miles:250.0);
  Alcotest.(check bool) "outside" false
    (Distance.within la ~center:nyc ~radius_miles:250.0)

let coord_gen =
  QCheck.Gen.(
    map2
      (fun lat lon -> Coord.make ~lat ~lon)
      (float_range (-89.0) 89.0) (float_range (-179.0) 179.0))

let arb_coord = QCheck.make coord_gen ~print:Coord.to_string

let triangle_inequality =
  QCheck.Test.make ~name:"triangle inequality" ~count:300
    (QCheck.triple arb_coord arb_coord arb_coord)
    (fun (a, b, c) ->
      Distance.miles a c <= Distance.miles a b +. Distance.miles b c +. 1e-6)

let interpolation_on_segment =
  QCheck.Test.make ~name:"interpolated point splits the distance" ~count:200
    (QCheck.pair arb_coord arb_coord)
    (fun (a, b) ->
      QCheck.assume (Distance.miles a b > 1.0);
      let m = Coord.interpolate a b 0.5 in
      let direct = Distance.miles a b in
      let via = Distance.miles a m +. Distance.miles m b in
      Float.abs (via -. direct) < 0.01 *. direct +. 0.5)

(* --- Disk windows --- *)

let window_centres =
  [
    coord 0.0 0.0; coord 45.0 (-100.0); coord 29.95 (-90.07); coord 88.9 20.0;
    coord 89.5 (-60.0); coord (-89.9) 100.0; coord (-88.5) 179.9;
    coord 10.0 179.99; coord (-30.0) (-179.95); coord 60.0 180.0;
    coord (-60.0) (-180.0); coord 90.0 0.0;
  ]

let window_radii = [ 0.01; 1.0; 30.0; 80.0; 250.0; 1000.0; 5000.0; 12000.0 ]

(* Every point the haversine puts on or inside the radius is in the
   window: the disk's edge along 36 bearings, around centres on the
   equator, near both poles and on both sides of the antimeridian. *)
let test_disk_window_edges () =
  List.iter
    (fun c ->
      List.iter
        (fun radius ->
          let w = Distance.disk_window ~center:c ~radius_miles:radius in
          Alcotest.(check bool) "centre in window" true (Distance.in_disk_window w c);
          for b = 0 to 35 do
            let bearing = float_of_int b *. Float.pi /. 18.0 in
            match Disk_edge.edge_points c ~radius ~bearing with
            | None -> ()
            | Some (on, _) ->
              if not (Distance.in_disk_window w on) then
                Alcotest.failf "%s at %.17g mi from %s (radius %g) outside its window"
                  (Coord.to_string on) (Distance.miles c on) (Coord.to_string c) radius
          done)
        window_radii)
    window_centres

let test_disk_window_empty () =
  List.iter
    (fun radius_miles ->
      let w = Distance.disk_window ~center:nyc ~radius_miles in
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (Printf.sprintf "radius %g holds nothing" radius_miles)
            false (Distance.in_disk_window w p))
        [ nyc; la; boston; chicago ])
    [ 0.0; -5.0; Float.nan; Float.neg_infinity ]

let disk_window_contains_disk =
  let gen =
    QCheck.Gen.(
      map2 (fun lat lon -> Coord.make ~lat ~lon) (float_range (-90.0) 90.0)
        (float_range (-180.0) 180.0)
      >>= fun c ->
      map (fun e -> 10.0 ** e) (float_range (-2.0) 4.1) >>= fun radius ->
      float_range 0.0 (2.0 *. Float.pi) >>= fun bearing ->
      float_range 0.0 1.5 >>= fun f -> return (c, radius, bearing, f))
  in
  QCheck.Test.make ~name:"disk window contains the disk" ~count:2000
    (QCheck.make gen ~print:(fun (c, r, b, f) ->
         Printf.sprintf "%s r=%g bearing=%g f=%g" (Coord.to_string c) r b f))
    (fun (c, radius, bearing, f) ->
      let p = Disk_edge.destination c ~bearing ~miles:(f *. radius) in
      let w = Distance.disk_window ~center:c ~radius_miles:radius in
      Distance.miles c p > radius || Distance.in_disk_window w p)

(* --- Bbox --- *)

let test_bbox_contains () =
  Alcotest.(check bool) "NYC in CONUS" true (Bbox.contains Bbox.conus nyc);
  Alcotest.(check bool) "London not in CONUS" false
    (Bbox.contains Bbox.conus (coord 51.5 0.1))

let test_bbox_of_coords () =
  let box = Bbox.of_coords [ nyc; la; chicago ] in
  Alcotest.(check (float 1e-9)) "min lat" 34.05 box.Bbox.min_lat;
  Alcotest.(check (float 1e-9)) "max lon" (-74.01) box.Bbox.max_lon;
  Alcotest.check_raises "empty" (Invalid_argument "Bbox.of_coords: empty list")
    (fun () -> ignore (Bbox.of_coords []))

let test_bbox_invalid () =
  Alcotest.check_raises "inverted" (Invalid_argument "Bbox.make: inverted bounds")
    (fun () ->
      ignore (Bbox.make ~min_lat:10.0 ~max_lat:0.0 ~min_lon:0.0 ~max_lon:1.0))

let test_bbox_expand_clamp () =
  let box = Bbox.make ~min_lat:30.0 ~max_lat:40.0 ~min_lon:(-100.0) ~max_lon:(-90.0) in
  let big = Bbox.expand box ~degrees:5.0 in
  Alcotest.(check (float 1e-9)) "expanded" 25.0 big.Bbox.min_lat;
  let clamped = Bbox.clamp box (coord 50.0 (-120.0)) in
  Alcotest.(check (float 1e-9)) "clamped lat" 40.0 (Coord.lat clamped);
  Alcotest.(check (float 1e-9)) "clamped lon" (-100.0) (Coord.lon clamped);
  let inside = Bbox.clamp box (coord 35.0 (-95.0)) in
  Alcotest.(check bool) "inside unchanged" true (Coord.equal inside (coord 35.0 (-95.0)))

let test_bbox_center () =
  let box = Bbox.make ~min_lat:30.0 ~max_lat:40.0 ~min_lon:(-100.0) ~max_lon:(-90.0) in
  Alcotest.(check bool) "center" true (Coord.equal (Bbox.center box) (coord 35.0 (-95.0)))

(* --- Grid --- *)

let test_grid_cell_round_trip () =
  let grid = Grid.create Bbox.conus ~rows:50 ~cols:100 in
  match Grid.cell_of_coord grid chicago with
  | None -> Alcotest.fail "chicago should be on the grid"
  | Some (row, col) ->
    let back = Grid.coord_of_cell grid row col in
    Alcotest.(check bool) "cell centre near the point" true
      (Distance.miles chicago back < 60.0)

let test_grid_row_zero_is_north () =
  let grid = Grid.create Bbox.conus ~rows:50 ~cols:100 in
  let seattle = coord 47.61 (-122.33) in
  let miami = coord 25.76 (-80.19) in
  match (Grid.cell_of_coord grid seattle, Grid.cell_of_coord grid miami) with
  | Some (rs, _), Some (rm, _) ->
    Alcotest.(check bool) "north has smaller row" true (rs < rm)
  | _ -> Alcotest.fail "both cities must be on the grid"

let test_grid_deposit_total () =
  let grid = Grid.create Bbox.conus ~rows:10 ~cols:10 in
  Grid.deposit grid nyc 2.0;
  Grid.deposit grid la 3.0;
  Grid.deposit grid (coord 51.5 0.1) 100.0 (* dropped: outside *);
  Alcotest.(check (float 1e-9)) "total" 5.0 (Grid.total grid)

let test_grid_normalize () =
  let grid = Grid.create Bbox.conus ~rows:5 ~cols:5 in
  Grid.deposit grid nyc 2.0;
  Grid.deposit grid la 2.0;
  Grid.normalize grid;
  Alcotest.(check (float 1e-9)) "unit mass" 1.0 (Grid.total grid)

let test_grid_mass_in () =
  let grid = Grid.create Bbox.conus ~rows:50 ~cols:100 in
  Grid.deposit grid nyc 1.0;
  let east = Bbox.make ~min_lat:24.5 ~max_lat:49.5 ~min_lon:(-90.0) ~max_lon:(-66.5) in
  Alcotest.(check (float 1e-9)) "all mass in east" 1.0 (Grid.mass_in grid east)

let test_grid_render_dims () =
  let grid = Grid.create Bbox.conus ~rows:20 ~cols:40 in
  Grid.deposit grid nyc 1.0;
  let s = Grid.render_ascii ~width:30 ~height:8 grid in
  let lines = String.split_on_char '\n' s in
  let non_empty = List.filter (fun l -> String.length l > 0) lines in
  Alcotest.(check int) "height" 8 (List.length non_empty);
  List.iter (fun l -> Alcotest.(check int) "width" 30 (String.length l)) non_empty

let test_grid_out_of_range () =
  let grid = Grid.create Bbox.conus ~rows:5 ~cols:5 in
  Alcotest.(check (option (pair int int))) "outside" None
    (Grid.cell_of_coord grid (coord 51.5 0.1))

(* --- Polyline --- *)

let test_polyline_length () =
  let line = [| nyc; chicago; la |] in
  let expected = Distance.miles nyc chicago +. Distance.miles chicago la in
  Alcotest.(check (float 0.01)) "sum of legs" expected (Polyline.length_miles line);
  Alcotest.(check (float 1e-9)) "single point" 0.0 (Polyline.length_miles [| nyc |])

let test_polyline_point_at () =
  let line = [| nyc; la |] in
  let start = Polyline.point_at line ~fraction:0.0 in
  Alcotest.(check bool) "start" true (Distance.miles start nyc < 1.0);
  let finish = Polyline.point_at line ~fraction:1.0 in
  Alcotest.(check bool) "finish" true (Distance.miles finish la < 1.0);
  let mid = Polyline.point_at line ~fraction:0.5 in
  Alcotest.(check bool) "mid equidistant" true
    (Float.abs (Distance.miles nyc mid -. Distance.miles mid la) < 5.0)

let test_polyline_resample () =
  let line = [| nyc; la |] in
  let dense = Polyline.resample line ~every_miles:100.0 in
  Alcotest.(check bool) "about 25 points" true (Array.length dense >= 20);
  Alcotest.(check bool) "starts at nyc" true (Distance.miles dense.(0) nyc < 1.0);
  Alcotest.(check bool) "ends at la" true
    (Distance.miles dense.(Array.length dense - 1) la < 1.0)

let () =
  Alcotest.run "rr_geo"
    [
      ( "coord",
        [
          Alcotest.test_case "validation" `Quick test_coord_validation;
          Alcotest.test_case "accessors" `Quick test_coord_accessors;
          Alcotest.test_case "equal/compare" `Quick test_coord_equal_compare;
          Alcotest.test_case "midpoint" `Quick test_midpoint;
          Alcotest.test_case "interpolate endpoints" `Quick test_interpolate_endpoints;
          Alcotest.test_case "interpolate degenerate" `Quick test_interpolate_same_point;
          Alcotest.test_case "pretty print" `Quick test_pp;
        ] );
      ( "distance",
        [
          Alcotest.test_case "known city pairs" `Quick test_known_distances;
          Alcotest.test_case "zero and symmetric" `Quick test_distance_zero_symmetric;
          Alcotest.test_case "km conversion" `Quick test_km_conversion;
          Alcotest.test_case "within disc" `Quick test_within;
          QCheck_alcotest.to_alcotest triangle_inequality;
          QCheck_alcotest.to_alcotest interpolation_on_segment;
        ] );
      ( "disk window",
        [
          Alcotest.test_case "edge points inside" `Quick test_disk_window_edges;
          Alcotest.test_case "empty without a radius" `Quick test_disk_window_empty;
          QCheck_alcotest.to_alcotest disk_window_contains_disk;
        ] );
      ( "bbox",
        [
          Alcotest.test_case "contains" `Quick test_bbox_contains;
          Alcotest.test_case "of_coords" `Quick test_bbox_of_coords;
          Alcotest.test_case "invalid" `Quick test_bbox_invalid;
          Alcotest.test_case "expand/clamp" `Quick test_bbox_expand_clamp;
          Alcotest.test_case "center" `Quick test_bbox_center;
        ] );
      ( "grid",
        [
          Alcotest.test_case "cell round trip" `Quick test_grid_cell_round_trip;
          Alcotest.test_case "row zero north" `Quick test_grid_row_zero_is_north;
          Alcotest.test_case "deposit/total" `Quick test_grid_deposit_total;
          Alcotest.test_case "normalize" `Quick test_grid_normalize;
          Alcotest.test_case "mass_in" `Quick test_grid_mass_in;
          Alcotest.test_case "render dimensions" `Quick test_grid_render_dims;
          Alcotest.test_case "out of range" `Quick test_grid_out_of_range;
        ] );
      ( "polyline",
        [
          Alcotest.test_case "length" `Quick test_polyline_length;
          Alcotest.test_case "point_at" `Quick test_polyline_point_at;
          Alcotest.test_case "resample" `Quick test_polyline_resample;
        ] );
    ]
