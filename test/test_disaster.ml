let small_catalog () = Rr_disaster.Catalog.generate ~seed:21L ~scale:0.02 ()

(* --- Event --- *)

let test_paper_counts () =
  Alcotest.(check int) "hurricane" 2_805
    (Rr_disaster.Event.paper_count Rr_disaster.Event.Fema_hurricane);
  Alcotest.(check int) "wind" 143_847
    (Rr_disaster.Event.paper_count Rr_disaster.Event.Noaa_wind);
  let total =
    List.fold_left
      (fun acc k -> acc + Rr_disaster.Event.paper_count k)
      0 Rr_disaster.Event.all_kinds
  in
  (* 29,865 FEMA declarations + 146,114 NOAA records *)
  Alcotest.(check int) "grand total" 175_979 total

let test_fema_total_matches_paper () =
  let fema =
    Rr_disaster.Event.paper_count Rr_disaster.Event.Fema_hurricane
    + Rr_disaster.Event.paper_count Rr_disaster.Event.Fema_tornado
    + Rr_disaster.Event.paper_count Rr_disaster.Event.Fema_storm
  in
  Alcotest.(check int) "29,865 FEMA declarations" 29_865 fema

let test_kind_names_distinct () =
  let names = List.map Rr_disaster.Event.kind_name Rr_disaster.Event.all_kinds in
  Alcotest.(check int) "distinct" 5 (List.length (List.sort_uniq compare names))

(* --- Model --- *)

(* A literal copy of the sampler as it was when every call rebuilt its
   tables: the component weights per macro draw, and the city weights,
   with the components' weight sum re-summed per city, per call. *)
module Reference_sampler = struct
  open Rr_disaster.Model

  let macro_density t coord =
    let box_area = 3_100_000.0 in
    let total_w = Rr_util.Arrayx.fsum (Array.map (fun comp -> comp.weight) t.macro) in
    let from_components =
      Array.fold_left
        (fun acc comp ->
          let d = Rr_geo.Distance.miles comp.center coord in
          let s2 = comp.sigma_miles *. comp.sigma_miles in
          acc +. (comp.weight /. total_w /. (2.0 *. Float.pi *. s2) *. exp (-0.5 *. d *. d /. s2)))
        0.0 t.macro
    in
    (t.background /. box_area) +. ((1.0 -. t.background) *. from_components)

  let offset_by_miles rng coord sigma_miles =
    let dy, dx = Rr_util.Prng.gaussian2 rng in
    let dlat = sigma_miles *. dy /. 69.0 in
    let lat0 = Rr_geo.Coord.lat coord in
    let miles_per_lon = 69.0 *. Float.max 0.2 (cos (lat0 *. Float.pi /. 180.0)) in
    let dlon = sigma_miles *. dx /. miles_per_lon in
    let lat = Float.max (-89.0) (Float.min 89.0 (lat0 +. dlat)) in
    let lon =
      Float.max (-179.0) (Float.min 179.0 (Rr_geo.Coord.lon coord +. dlon))
    in
    Rr_geo.Bbox.clamp Rr_geo.Bbox.conus (Rr_geo.Coord.make ~lat ~lon)

  let draw_from_macro rng t =
    if Rr_util.Prng.float rng 1.0 < t.background then begin
      let lat = Rr_util.Prng.uniform rng 25.0 49.0 in
      let lon = Rr_util.Prng.uniform rng (-124.5) (-67.0) in
      Rr_geo.Coord.make ~lat ~lon
    end
    else begin
      let weights = Array.map (fun comp -> comp.weight) t.macro in
      let comp = t.macro.(Rr_util.Prng.categorical rng weights) in
      offset_by_miles rng comp.center comp.sigma_miles
    end

  let sampler t ~seed =
    match t.cluster_sites with
    | None -> fun rng -> draw_from_macro rng t
    | Some k ->
      let site_rng = Rr_util.Prng.create seed in
      let city_weights =
        Array.map
          (fun (city : Rr_cities.Data.city) ->
            sqrt (float_of_int city.Rr_cities.Data.population)
            *. macro_density t city.Rr_cities.Data.coord)
          Rr_cities.Data.all
      in
      let total_city_weight = Rr_util.Arrayx.fsum city_weights in
      let draw_site rng =
        if total_city_weight > 0.0 && Rr_util.Prng.float rng 1.0 < t.city_anchor then
          Rr_cities.Data.all.(Rr_util.Prng.categorical rng city_weights).Rr_cities.Data.coord
        else draw_from_macro rng t
      in
      let sites = Array.init k (fun _ -> draw_site site_rng) in
      fun rng ->
        let site = sites.(Rr_util.Prng.int rng k) in
        if t.site_jitter_miles > 0.0 then offset_by_miles rng site t.site_jitter_miles
        else site
end

let draws sampler ~seed =
  let sample = sampler ~seed in
  let rng = Rr_util.Prng.create (Int64.add seed 1L) in
  Array.init 300 (fun _ ->
      let c = sample rng in
      (Int64.bits_of_float (Rr_geo.Coord.lat c), Int64.bits_of_float (Rr_geo.Coord.lon c)))

(* The calibrated models build their sampler tables once, on first use,
   possibly from several domains at once (this runs first, at pool size
   4, so the tables are built under that race); every draw must still
   equal the per-call construction, at every pool size, for every kind
   and seed. A copy of a calibrated model made with [with] must not
   reuse the original's tables. *)
let test_model_tables_built_once () =
  let seeds = [ 1L; 9L; 42L; 0x5EEDL ] in
  let cases =
    Array.of_list
      (List.concat_map (fun k -> List.map (fun s -> (k, s)) seeds)
         Rr_disaster.Event.all_kinds)
  in
  let expected =
    Array.map
      (fun (kind, seed) ->
        draws (Reference_sampler.sampler (Rr_disaster.Model.for_kind kind)) ~seed)
      cases
  in
  List.iter
    (fun pool ->
      let old = Rr_util.Parallel.domain_count () in
      Rr_util.Parallel.set_domain_count pool;
      let got =
        Fun.protect ~finally:(fun () -> Rr_util.Parallel.set_domain_count old)
        @@ fun () ->
        Rr_util.Parallel.map_array
          (fun (kind, seed) ->
            draws (Rr_disaster.Model.sampler (Rr_disaster.Model.for_kind kind)) ~seed)
          cases
      in
      Array.iteri
        (fun i (kind, seed) ->
          if got.(i) <> expected.(i) then
            Alcotest.failf "%s seed %Ld differs from the per-call build at pool %d"
              (Rr_disaster.Event.kind_name kind) seed pool)
        cases)
    [ 4; 2; 1 ];
  List.iter
    (fun kind ->
      let m = Rr_disaster.Model.for_kind kind in
      Alcotest.(check bool) "one model per kind" true (m == Rr_disaster.Model.for_kind kind);
      let copy = { m with Rr_disaster.Model.macro = Array.sub m.Rr_disaster.Model.macro 0 3 } in
      if draws (Rr_disaster.Model.sampler copy) ~seed:5L
         <> draws (Reference_sampler.sampler copy) ~seed:5L
      then
        Alcotest.failf "%s: a copied model reused the original's tables"
          (Rr_disaster.Event.kind_name kind))
    Rr_disaster.Event.all_kinds

let test_model_sampler_in_conus () =
  List.iter
    (fun kind ->
      let model = Rr_disaster.Model.for_kind kind in
      let sample = Rr_disaster.Model.sampler model ~seed:9L in
      let rng = Rr_util.Prng.create 10L in
      for _ = 1 to 200 do
        let c = sample rng in
        Alcotest.(check bool) "in CONUS" true
          (Rr_geo.Bbox.contains Rr_geo.Bbox.conus c)
      done)
    Rr_disaster.Event.all_kinds

let test_model_macro_density_positive () =
  let model = Rr_disaster.Model.for_kind Rr_disaster.Event.Fema_hurricane in
  let at_gulf =
    Rr_disaster.Model.macro_density model (Rr_geo.Coord.make ~lat:29.95 ~lon:(-90.07))
  in
  let at_plains =
    Rr_disaster.Model.macro_density model (Rr_geo.Coord.make ~lat:41.0 ~lon:(-100.0))
  in
  Alcotest.(check bool) "positive" true (at_gulf > 0.0);
  Alcotest.(check bool) "gulf >> plains for hurricanes" true (at_gulf > 10.0 *. at_plains)

let test_model_geography () =
  (* earthquake mass should sit in the west; tornado mass in the plains *)
  let check kind hot cold =
    let model = Rr_disaster.Model.for_kind kind in
    let sample = Rr_disaster.Model.sampler model ~seed:3L in
    let rng = Rr_util.Prng.create 4L in
    let hot_count = ref 0 and cold_count = ref 0 in
    for _ = 1 to 1000 do
      let c = sample rng in
      if Rr_geo.Distance.miles c hot < 500.0 then incr hot_count;
      if Rr_geo.Distance.miles c cold < 500.0 then incr cold_count
    done;
    Alcotest.(check bool)
      (Rr_disaster.Event.kind_name kind ^ " geography")
      true (!hot_count > 2 * !cold_count)
  in
  check Rr_disaster.Event.Noaa_earthquake
    (Rr_geo.Coord.make ~lat:36.0 ~lon:(-119.0)) (* California *)
    (Rr_geo.Coord.make ~lat:33.0 ~lon:(-84.0));  (* Georgia *)
  check Rr_disaster.Event.Fema_tornado
    (Rr_geo.Coord.make ~lat:36.0 ~lon:(-97.0))  (* Oklahoma *)
    (Rr_geo.Coord.make ~lat:44.0 ~lon:(-71.0))   (* New Hampshire *)

(* --- Catalog --- *)

let test_catalog_scaled_counts () =
  let catalog = small_catalog () in
  List.iter
    (fun kind ->
      let expected =
        max 10
          (int_of_float (Float.round (0.02 *. float_of_int (Rr_disaster.Event.paper_count kind))))
      in
      Alcotest.(check int)
        (Rr_disaster.Event.kind_name kind)
        expected
        (Rr_disaster.Catalog.count catalog kind))
    Rr_disaster.Event.all_kinds

let test_catalog_total () =
  let catalog = small_catalog () in
  let sum =
    List.fold_left
      (fun acc k -> acc + Rr_disaster.Catalog.count catalog k)
      0 Rr_disaster.Event.all_kinds
  in
  Alcotest.(check int) "total is sum" sum (Rr_disaster.Catalog.total catalog)

let test_catalog_years () =
  let catalog = small_catalog () in
  Array.iter
    (fun (e : Rr_disaster.Event.t) ->
      Alcotest.(check bool) "1970-2010" true
        (e.Rr_disaster.Event.year >= 1970 && e.Rr_disaster.Event.year <= 2010))
    (Rr_disaster.Catalog.events catalog)

let test_catalog_deterministic () =
  let a = Rr_disaster.Catalog.generate ~seed:33L ~scale:0.01 () in
  let b = Rr_disaster.Catalog.generate ~seed:33L ~scale:0.01 () in
  let coords c = Rr_disaster.Catalog.coords c Rr_disaster.Event.Fema_storm in
  Alcotest.(check bool) "same storm coords" true
    (Array.for_all2 Rr_geo.Coord.equal (coords a) (coords b))

let test_catalog_validation () =
  Alcotest.check_raises "bad scale"
    (Invalid_argument "Catalog.generate: non-positive scale") (fun () ->
      ignore (Rr_disaster.Catalog.generate ~scale:0.0 ()))

(* --- Riskmap --- *)

let test_riskmap_positive_and_geographic () =
  let riskmap = Rr_disaster.Riskmap.build (small_catalog ()) in
  let new_orleans = Rr_geo.Coord.make ~lat:29.95 ~lon:(-90.07) in
  let montana = Rr_geo.Coord.make ~lat:47.0 ~lon:(-109.0) in
  let risk_no = Rr_disaster.Riskmap.risk_at riskmap new_orleans in
  let risk_mt = Rr_disaster.Riskmap.risk_at riskmap montana in
  Alcotest.(check bool) "positive at New Orleans" true (risk_no > 0.0);
  Alcotest.(check bool) "Gulf riskier than Montana" true (risk_no > 3.0 *. risk_mt)

let test_riskmap_kind_density () =
  let riskmap = Rr_disaster.Riskmap.build (small_catalog ()) in
  List.iter
    (fun kind ->
      let density = Rr_disaster.Riskmap.kind_density riskmap kind in
      Alcotest.(check (float 1e-9))
        (Rr_disaster.Event.kind_name kind ^ " bandwidth")
        (Rr_disaster.Event.paper_bandwidth kind)
        (Rr_kde.Grid_density.bandwidth density))
    Rr_disaster.Event.all_kinds

let test_riskmap_custom_bandwidth () =
  let riskmap =
    Rr_disaster.Riskmap.build ~bandwidth:(fun _ -> 50.0) (small_catalog ())
  in
  let density = Rr_disaster.Riskmap.kind_density riskmap Rr_disaster.Event.Noaa_wind in
  Alcotest.(check (float 1e-9)) "override" 50.0 (Rr_kde.Grid_density.bandwidth density)

let test_riskmap_pop_risks () =
  let zoo = Rr_topology.Zoo.shared () in
  let net = Option.get (Rr_topology.Zoo.find zoo "Globalcenter") in
  let riskmap = Rr_disaster.Riskmap.build (small_catalog ()) in
  let risks = Rr_disaster.Riskmap.pop_risks riskmap net in
  Alcotest.(check int) "one per PoP" (Rr_topology.Net.pop_count net) (Array.length risks);
  Array.iter (fun r -> Alcotest.(check bool) "non-negative" true (r >= 0.0)) risks;
  Alcotest.(check (float 1e-12)) "average matches"
    (Rr_util.Arrayx.fmean risks)
    (Rr_disaster.Riskmap.average_pop_risk riskmap net)

let () =
  Alcotest.run "rr_disaster"
    [
      ( "event",
        [
          Alcotest.test_case "paper counts" `Quick test_paper_counts;
          Alcotest.test_case "FEMA total" `Quick test_fema_total_matches_paper;
          Alcotest.test_case "kind names" `Quick test_kind_names_distinct;
        ] );
      ( "model",
        [
          Alcotest.test_case "tables built once" `Quick test_model_tables_built_once;
          Alcotest.test_case "samples in CONUS" `Quick test_model_sampler_in_conus;
          Alcotest.test_case "macro density" `Quick test_model_macro_density_positive;
          Alcotest.test_case "geography" `Quick test_model_geography;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "scaled counts" `Quick test_catalog_scaled_counts;
          Alcotest.test_case "total" `Quick test_catalog_total;
          Alcotest.test_case "years" `Quick test_catalog_years;
          Alcotest.test_case "deterministic" `Quick test_catalog_deterministic;
          Alcotest.test_case "validation" `Quick test_catalog_validation;
        ] );
      ( "riskmap",
        [
          Alcotest.test_case "geographic risk" `Quick test_riskmap_positive_and_geographic;
          Alcotest.test_case "kind densities" `Quick test_riskmap_kind_density;
          Alcotest.test_case "custom bandwidth" `Quick test_riskmap_custom_bandwidth;
          Alcotest.test_case "pop risks" `Quick test_riskmap_pop_risks;
        ] );
    ]
