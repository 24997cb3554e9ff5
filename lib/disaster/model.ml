open Rr_util

type component = {
  center : Rr_geo.Coord.t;
  sigma_miles : float;
  weight : float;
}

type t = {
  kind : Event.kind;
  macro : component array;
  background : float;
  cluster_sites : int option;
  site_jitter_miles : float;
  city_anchor : float;
}

let c ~lat ~lon ~sigma ~w =
  { center = Rr_geo.Coord.make ~lat ~lon; sigma_miles = sigma; weight = w }

let hurricane_macro =
  [|
    c ~lat:29.3 ~lon:(-94.8) ~sigma:70.0 ~w:2.0;   (* Galveston / upper TX coast *)
    c ~lat:29.95 ~lon:(-90.07) ~sigma:60.0 ~w:2.2; (* New Orleans *)
    c ~lat:30.5 ~lon:(-87.6) ~sigma:55.0 ~w:1.6;    (* Mobile / Pensacola *)
    c ~lat:27.9 ~lon:(-82.5) ~sigma:65.0 ~w:1.8;   (* Tampa *)
    c ~lat:25.9 ~lon:(-80.3) ~sigma:60.0 ~w:1.8;    (* Miami *)
    c ~lat:32.3 ~lon:(-80.7) ~sigma:60.0 ~w:1.2;   (* Savannah / Charleston *)
    c ~lat:35.3 ~lon:(-75.8) ~sigma:70.0 ~w:1.2;   (* Outer Banks *)
    c ~lat:36.9 ~lon:(-76.2) ~sigma:55.0 ~w:0.9;    (* Norfolk *)
    c ~lat:40.8 ~lon:(-72.9) ~sigma:60.0 ~w:0.7;    (* Long Island / NE coast *)
  |]

let tornado_macro =
  [|
    c ~lat:35.47 ~lon:(-97.52) ~sigma:100.0 ~w:3.0; (* Oklahoma City *)
    c ~lat:37.69 ~lon:(-97.34) ~sigma:90.0 ~w:2.5; (* Wichita *)
    c ~lat:33.2 ~lon:(-97.1) ~sigma:90.0 ~w:2.0;   (* North Texas *)
    c ~lat:40.0 ~lon:(-98.0) ~sigma:100.0 ~w:2.0;   (* KS / NE line *)
    c ~lat:37.5 ~lon:(-93.0) ~sigma:90.0 ~w:1.5;   (* Missouri *)
    c ~lat:33.52 ~lon:(-86.8) ~sigma:80.0 ~w:1.5;  (* Dixie Alley: Birmingham *)
    c ~lat:32.3 ~lon:(-90.2) ~sigma:70.0 ~w:1.2;   (* Jackson MS *)
    c ~lat:34.3 ~lon:(-88.7) ~sigma:65.0 ~w:1.0;    (* Tupelo *)
    c ~lat:36.16 ~lon:(-86.78) ~sigma:75.0 ~w:0.8; (* Nashville *)
  |]

let storm_macro =
  [|
    c ~lat:41.59 ~lon:(-93.62) ~sigma:140.0 ~w:2.0; (* Des Moines *)
    c ~lat:39.1 ~lon:(-94.58) ~sigma:130.0 ~w:2.0;  (* Kansas City *)
    c ~lat:38.63 ~lon:(-90.2) ~sigma:130.0 ~w:2.0;  (* St. Louis *)
    c ~lat:41.88 ~lon:(-87.63) ~sigma:130.0 ~w:1.5; (* Chicago *)
    c ~lat:35.47 ~lon:(-97.52) ~sigma:110.0 ~w:1.5; (* Oklahoma City *)
    c ~lat:32.78 ~lon:(-96.8) ~sigma:110.0 ~w:1.2;  (* Dallas *)
    c ~lat:44.98 ~lon:(-93.27) ~sigma:130.0 ~w:1.5; (* Minneapolis *)
    c ~lat:36.16 ~lon:(-86.78) ~sigma:110.0 ~w:1.2; (* Nashville *)
    c ~lat:39.96 ~lon:(-83.0) ~sigma:110.0 ~w:1.2;  (* Columbus OH *)
    c ~lat:33.75 ~lon:(-84.39) ~sigma:105.0 ~w:1.0; (* Atlanta *)
    c ~lat:42.65 ~lon:(-73.75) ~sigma:100.0 ~w:0.8; (* Albany NY *)
  |]

let earthquake_macro =
  [|
    c ~lat:34.05 ~lon:(-118.24) ~sigma:280.0 ~w:3.0; (* Los Angeles *)
    c ~lat:37.77 ~lon:(-122.42) ~sigma:260.0 ~w:3.0; (* San Francisco *)
    c ~lat:47.61 ~lon:(-122.33) ~sigma:280.0 ~w:1.5; (* Seattle *)
    c ~lat:36.6 ~lon:(-89.5) ~sigma:260.0 ~w:1.5;    (* New Madrid *)
    c ~lat:40.76 ~lon:(-111.89) ~sigma:220.0 ~w:0.8; (* Wasatch front *)
    c ~lat:39.53 ~lon:(-119.81) ~sigma:200.0 ~w:0.8; (* Reno / Nevada *)
    c ~lat:32.78 ~lon:(-79.93) ~sigma:150.0 ~w:0.3;  (* Charleston SC *)
    c ~lat:44.5 ~lon:(-110.6) ~sigma:220.0 ~w:0.5;   (* Yellowstone *)
  |]

let wind_macro =
  [|
    c ~lat:41.88 ~lon:(-87.63) ~sigma:350.0 ~w:2.0;  (* upper Midwest *)
    c ~lat:32.78 ~lon:(-96.8) ~sigma:350.0 ~w:1.8;   (* southern plains *)
    c ~lat:33.75 ~lon:(-84.39) ~sigma:300.0 ~w:1.6;  (* Southeast *)
    c ~lat:40.71 ~lon:(-74.01) ~sigma:250.0 ~w:1.2;  (* Northeast *)
    c ~lat:39.1 ~lon:(-94.58) ~sigma:300.0 ~w:1.6;   (* central plains *)
    c ~lat:44.98 ~lon:(-93.27) ~sigma:300.0 ~w:1.2;  (* Minnesota *)
    c ~lat:39.74 ~lon:(-104.99) ~sigma:200.0 ~w:0.6; (* Front Range *)
  |]

let calibrated = function
  | Event.Fema_hurricane ->
    { kind = Event.Fema_hurricane; macro = hurricane_macro; background = 0.02;
      cluster_sites = Some 450; site_jitter_miles = 45.0; city_anchor = 0.5 }
  | Event.Fema_tornado ->
    { kind = Event.Fema_tornado; macro = tornado_macro; background = 0.03;
      cluster_sites = Some 800; site_jitter_miles = 32.0; city_anchor = 0.35 }
  | Event.Fema_storm ->
    { kind = Event.Fema_storm; macro = storm_macro; background = 0.05;
      cluster_sites = Some 1600; site_jitter_miles = 14.0; city_anchor = 0.5 }
  | Event.Noaa_earthquake ->
    { kind = Event.Noaa_earthquake; macro = earthquake_macro; background = 0.08;
      cluster_sites = None; site_jitter_miles = 0.0; city_anchor = 0.0 }
  | Event.Noaa_wind ->
    { kind = Event.Noaa_wind; macro = wind_macro; background = 0.08;
      cluster_sites = Some 3000; site_jitter_miles = 3.0; city_anchor = 0.7 }

let kind_index = function
  | Event.Fema_hurricane -> 0
  | Event.Fema_tornado -> 1
  | Event.Fema_storm -> 2
  | Event.Noaa_earthquake -> 3
  | Event.Noaa_wind -> 4

(* One physical model per kind, so the tables below can be found by
   identity. *)
let models = Array.of_list (List.map calibrated Event.all_kinds)

let for_kind kind = models.(kind_index kind)

(* Seasonal month weights (January first). *)
let month_weights = function
  | Event.Fema_hurricane ->
    (* Atlantic season June-November, peaking in September *)
    [| 0.0; 0.0; 0.0; 0.0; 0.01; 0.05; 0.09; 0.22; 0.34; 0.20; 0.08; 0.01 |]
  | Event.Fema_tornado ->
    (* spring peak *)
    [| 0.02; 0.03; 0.08; 0.18; 0.24; 0.17; 0.08; 0.05; 0.04; 0.04; 0.04; 0.03 |]
  | Event.Fema_storm ->
    (* warm-season convection *)
    [| 0.03; 0.04; 0.07; 0.11; 0.15; 0.17; 0.14; 0.11; 0.07; 0.05; 0.03; 0.03 |]
  | Event.Noaa_earthquake ->
    Array.make 12 (1.0 /. 12.0)
  | Event.Noaa_wind ->
    [| 0.04; 0.04; 0.07; 0.10; 0.13; 0.15; 0.14; 0.11; 0.08; 0.06; 0.04; 0.04 |]

let sample_month rng kind = 1 + Prng.categorical rng (month_weights kind)

let component_weights t = Array.map (fun comp -> comp.weight) t.macro

(* Mixture density (per square mile) of the regional macro model at a
   point, used to weight which cities anchor event sites. [total_w] is
   the components' weight sum. *)
let density t ~total_w coord =
  let box_area = 3_100_000.0 (* approx CONUS square miles *) in
  let from_components =
    Array.fold_left
      (fun acc comp ->
        let d = Rr_geo.Distance.miles comp.center coord in
        let s2 = comp.sigma_miles *. comp.sigma_miles in
        acc +. (comp.weight /. total_w /. (2.0 *. Float.pi *. s2) *. exp (-0.5 *. d *. d /. s2)))
      0.0 t.macro
  in
  (t.background /. box_area) +. ((1.0 -. t.background) *. from_components)

let macro_density t coord =
  density t ~total_w:(Arrayx.fsum (component_weights t)) coord

let offset_by_miles rng coord sigma_miles =
  let dy, dx = Prng.gaussian2 rng in
  let dlat = sigma_miles *. dy /. 69.0 in
  let lat0 = Rr_geo.Coord.lat coord in
  let miles_per_lon = 69.0 *. Float.max 0.2 (cos (lat0 *. Float.pi /. 180.0)) in
  let dlon = sigma_miles *. dx /. miles_per_lon in
  let lat = Float.max (-89.0) (Float.min 89.0 (lat0 +. dlat)) in
  let lon =
    Float.max (-179.0) (Float.min 179.0 (Rr_geo.Coord.lon coord +. dlon))
  in
  Rr_geo.Bbox.clamp Rr_geo.Bbox.conus (Rr_geo.Coord.make ~lat ~lon)

(* What a sampler needs of its model whatever the seed: the component
   weights and, for a site-quantised model, the city-anchor weights. *)
type tables = {
  component_w : float array;
  city_weights : float array;
  total_city_weight : float;
}

let build_tables t =
  let component_w = component_weights t in
  let total_w = Arrayx.fsum component_w in
  let city_weights =
    if t.cluster_sites = None then [||]
    else
      (* sqrt damping: report counts grow sub-linearly with population
         (one weather office covers a metro of any size). *)
      Array.map
        (fun (city : Rr_cities.Data.city) ->
          sqrt (float_of_int city.Rr_cities.Data.population)
          *. density t ~total_w city.Rr_cities.Data.coord)
        Rr_cities.Data.all
  in
  { component_w; city_weights; total_city_weight = Arrayx.fsum city_weights }

(* The calibrated models' tables are built on first use and then kept.
   Domains may race to build one: each builds the same values, and the
   first to store them wins. Any other model (a caller's record, or a
   copy made with [with]) builds its own on every [sampler] call. *)
let slots : tables option Atomic.t array =
  Array.map (fun _ -> Atomic.make None) models

let tables t =
  let i = kind_index t.kind in
  if t != models.(i) then build_tables t
  else
    match Atomic.get slots.(i) with
    | Some tb -> tb
    | None ->
      ignore (Atomic.compare_and_set slots.(i) None (Some (build_tables t)));
      Option.get (Atomic.get slots.(i))

let draw_from_macro rng t component_w =
  if Prng.float rng 1.0 < t.background then begin
    let lat = Prng.uniform rng 25.0 49.0 in
    let lon = Prng.uniform rng (-124.5) (-67.0) in
    Rr_geo.Coord.make ~lat ~lon
  end
  else begin
    let comp = t.macro.(Prng.categorical rng component_w) in
    offset_by_miles rng comp.center comp.sigma_miles
  end

let sampler t ~seed =
  let tb = tables t in
  match t.cluster_sites with
  | None -> fun rng -> draw_from_macro rng t tb.component_w
  | Some k ->
    (* Fixed site set drawn once: county centroids / report towns. A
       [city_anchor] share of sites sit at gazetteer cities (event records
       concentrate where people are), drawn with probability proportional
       to population x regional macro density. *)
    let site_rng = Prng.create seed in
    let draw_site rng =
      if tb.total_city_weight > 0.0 && Prng.float rng 1.0 < t.city_anchor then
        Rr_cities.Data.all.(Prng.categorical rng tb.city_weights)
          .Rr_cities.Data.coord
      else draw_from_macro rng t tb.component_w
    in
    let sites = Array.init k (fun _ -> draw_site site_rng) in
    fun rng ->
      let site = sites.(Prng.int rng k) in
      if t.site_jitter_miles > 0.0 then offset_by_miles rng site t.site_jitter_miles
      else site
