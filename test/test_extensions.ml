(* Tests for the extension modules: k-shortest paths, Pareto frontiers,
   backup planning, OSPF export, shared risk, outage simulation,
   seasonality and GeoJSON. *)

open Riskroute

let coord lat lon = Rr_geo.Coord.make ~lat ~lon

(* the diamond from test_core: node 1 hot, node 2 cold *)
let diamond ?(extra = []) () =
  let coords =
    [| coord 29.76 (-95.37); coord 29.95 (-90.07); coord 36.16 (-86.78); coord 30.33 (-81.66) |]
  in
  let graph = Rr_graph.Graph.of_edges 4 ([ (0, 1); (1, 3); (0, 2); (2, 3) ] @ extra) in
  let impact = [| 0.4; 0.3; 0.1; 0.2 |] in
  let historical = [| 1e-5; 3e-4; 1e-7; 2e-5 |] in
  Env.make ~graph ~coords ~impact ~historical ()

(* --- Kpaths (Yen) --- *)

let grid_graph () =
  (* 3x3 grid, nodes row-major *)
  let g = Rr_graph.Graph.create 9 in
  for r = 0 to 2 do
    for c = 0 to 2 do
      let v = (3 * r) + c in
      if c < 2 then Rr_graph.Graph.add_edge g v (v + 1);
      if r < 2 then Rr_graph.Graph.add_edge g v (v + 3)
    done
  done;
  g

let yen g ~weight ~src ~dst ~k =
  let off, tgt, weight = Arc_weight.lift g weight in
  Rr_graph.Kpaths.yen ~n:(Rr_graph.Graph.node_count g) ~off ~tgt ~weight ~src ~dst ~k

let test_yen_first_is_shortest () =
  let g = grid_graph () in
  let weight _ _ = 1.0 in
  match yen g ~weight ~src:0 ~dst:8 ~k:5 with
  | (cost, path) :: _ ->
    Alcotest.(check (float 1e-9)) "4 hops" 4.0 cost;
    Alcotest.(check int) "5 nodes" 5 (List.length path)
  | [] -> Alcotest.fail "connected"

let test_yen_sorted_and_distinct () =
  let g = grid_graph () in
  let weight u v = 1.0 +. (0.01 *. float_of_int (u + v)) in
  let paths = yen g ~weight ~src:0 ~dst:8 ~k:6 in
  Alcotest.(check int) "six paths" 6 (List.length paths);
  let costs = List.map fst paths in
  Alcotest.(check bool) "non-decreasing" true
    (List.sort Float.compare costs = costs);
  let distinct = List.sort_uniq compare (List.map snd paths) in
  Alcotest.(check int) "distinct" 6 (List.length distinct)

let test_yen_costs_match_paths () =
  let g = grid_graph () in
  let weight u v = float_of_int (1 + ((u * v) mod 3)) in
  let off, tgt, arc = Arc_weight.lift g weight in
  List.iter
    (fun (cost, path) ->
      Alcotest.(check (float 1e-9)) "cost consistent" cost
        (Rr_graph.Dijkstra.path_cost ~off ~tgt ~weight:(Fn arc) path))
    (yen g ~weight ~src:0 ~dst:8 ~k:8)

let test_yen_loopless () =
  let g = grid_graph () in
  List.iter
    (fun (_, path) ->
      Alcotest.(check int) "no repeats" (List.length path)
        (List.length (List.sort_uniq compare path)))
    (yen g ~weight:(fun _ _ -> 1.0) ~src:0 ~dst:8 ~k:10)

let test_yen_exhausts () =
  (* a path graph has exactly one loopless route *)
  let g = Rr_graph.Graph.of_edges 3 [ (0, 1); (1, 2) ] in
  Alcotest.(check int) "single path" 1
    (List.length (yen g ~weight:(fun _ _ -> 1.0) ~src:0 ~dst:2 ~k:5));
  Alcotest.(check int) "disconnected" 0
    (List.length
       (yen (Rr_graph.Graph.create 2) ~weight:(fun _ _ -> 1.0)
          ~src:0 ~dst:1 ~k:3))

(* --- Pareto --- *)

let test_pareto_frontier_diamond () =
  let env = diamond () in
  let frontier = Pareto.frontier env ~src:0 ~dst:3 in
  Alcotest.(check bool) "at least two options" true (List.length frontier >= 2);
  (* sorted by distance, risk must strictly decrease *)
  let rec check_order = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "distance increasing" true
        (a.Pareto.bit_miles <= b.Pareto.bit_miles +. 1e-9);
      Alcotest.(check bool) "risk decreasing" true (a.Pareto.risk >= b.Pareto.risk -. 1e-9);
      check_order rest
    | _ -> ()
  in
  check_order frontier

let test_pareto_no_dominated_points () =
  let env = diamond () in
  let frontier = Pareto.frontier env ~src:0 ~dst:3 in
  List.iter
    (fun p ->
      List.iter
        (fun q ->
          if p != q then
            Alcotest.(check bool) "no domination" false
              (q.Pareto.bit_miles <= p.Pareto.bit_miles
              && q.Pareto.risk <= p.Pareto.risk
              && (q.Pareto.bit_miles < p.Pareto.bit_miles || q.Pareto.risk < p.Pareto.risk)))
        frontier)
    frontier

let test_pareto_contains_extremes () =
  let env = diamond () in
  let frontier = Pareto.frontier env ~src:0 ~dst:3 in
  let shortest = Option.get (Router.shortest env ~src:0 ~dst:3) in
  (match frontier with
  | first :: _ ->
    Alcotest.(check (float 1e-6)) "starts at the shortest distance"
      shortest.Router.bit_miles first.Pareto.bit_miles
  | [] -> Alcotest.fail "non-empty");
  Alcotest.(check bool) "ends at the min-risk route" true
    (match List.rev frontier with
    | last :: _ -> last.Pareto.path = [ 0; 2; 3 ]
    | [] -> false)

let test_pareto_sweep_monotone () =
  let env = diamond () in
  let sweep = Pareto.sweep env ~src:0 ~dst:3 ~lambdas:[| 1.0; 1e5; 1e7 |] in
  Alcotest.(check int) "three entries" 3 (List.length sweep);
  let miles = List.map (fun (_, r) -> r.Router.bit_miles) sweep in
  Alcotest.(check bool) "bit-miles non-decreasing in lambda" true
    (List.sort Float.compare miles = miles)

let test_pareto_knee () =
  Alcotest.(check bool) "needs three points" true
    (Pareto.knee [] = None
    && Pareto.knee
         [ { Pareto.path = []; bit_miles = 1.0; risk = 2.0 };
           { Pareto.path = []; bit_miles = 2.0; risk = 1.0 } ]
       = None);
  let points =
    [
      { Pareto.path = [ 0 ]; bit_miles = 0.0; risk = 10.0 };
      { Pareto.path = [ 1 ]; bit_miles = 1.0; risk = 2.0 };
      { Pareto.path = [ 2 ]; bit_miles = 10.0; risk = 0.0 };
    ]
  in
  match Pareto.knee points with
  | Some k -> Alcotest.(check (float 1e-9)) "picks the elbow" 1.0 k.Pareto.bit_miles
  | None -> Alcotest.fail "knee exists"

(* --- Backup --- *)

let test_backup_plan_diamond () =
  let env = diamond () in
  match Backup.plan env ~src:0 ~dst:3 with
  | None -> Alcotest.fail "connected"
  | Some plan ->
    (* primary is 0-2-3: repairs for 2 links + 1 intermediate node *)
    Alcotest.(check (list int)) "primary" [ 0; 2; 3 ] plan.Backup.primary.Router.path;
    Alcotest.(check int) "three failure cases" 3 (List.length plan.Backup.repairs);
    Alcotest.(check (float 1e-9)) "full coverage" 1.0 (Backup.coverage plan);
    List.iter
      (fun (r : Backup.repair) ->
        match r.Backup.route with
        | Some route ->
          (* every repair avoids the failed element *)
          (match r.Backup.failed_node with
          | Some v ->
            Alcotest.(check bool) "avoids failed node" false
              (List.mem v route.Router.path)
          | None -> ());
          (match r.Backup.failed_link with
          | Some (u, v) ->
            let rec uses = function
              | a :: (b :: _ as rest) ->
                ((a = u && b = v) || (a = v && b = u)) || uses rest
              | _ -> false
            in
            Alcotest.(check bool) "avoids failed link" false (uses route.Router.path)
          | None -> ())
        | None -> Alcotest.fail "diamond always has a repair")
      plan.Backup.repairs

let test_backup_partition () =
  (* a path graph: failing the middle node partitions the flow *)
  let coords = [| coord 30.0 (-90.0); coord 32.0 (-95.0); coord 34.0 (-100.0) |] in
  let graph = Rr_graph.Graph.of_edges 3 [ (0, 1); (1, 2) ] in
  let env =
    Env.make ~graph ~coords ~impact:(Array.make 3 (1.0 /. 3.0))
      ~historical:(Array.make 3 1e-6) ()
  in
  match Backup.plan env ~src:0 ~dst:2 with
  | None -> Alcotest.fail "connected"
  | Some plan ->
    Alcotest.(check bool) "partial coverage" true (Backup.coverage plan < 1.0);
    let node_repair =
      List.find (fun r -> r.Backup.failed_node = Some 1) plan.Backup.repairs
    in
    Alcotest.(check bool) "no repair for the cut node" true
      (node_repair.Backup.route = None)

let test_backup_route_avoiding () =
  let env = diamond () in
  match
    Backup.route_avoiding env ~src:0 ~dst:3 ~banned_links:[] ~banned_nodes:[ 2 ]
  with
  | Some route -> Alcotest.(check (list int)) "forced through 1" [ 0; 1; 3 ] route.Router.path
  | None -> Alcotest.fail "alternate exists"

(* --- Ospf --- *)

let test_ospf_weights_shape () =
  let env = diamond () in
  let weights = Ospf.link_weights env in
  Alcotest.(check int) "two entries per link" 8 (Array.length weights);
  Alcotest.(check int) "one per arc" (Env.arc_count env) (Array.length weights);
  Array.iter
    (fun w ->
      Alcotest.(check bool) "in [1, 65535]" true (w >= 1 && w <= Ospf.max_ospf_weight))
    weights;
  let largest = Array.fold_left max 0 weights in
  Alcotest.(check int) "scale saturates" Ospf.max_ospf_weight largest

let test_ospf_spf_route () =
  let env = diamond () in
  let weights = Ospf.link_weights env in
  match Ospf.spf_route env ~weights ~src:0 ~dst:3 with
  | Some route ->
    (* with mean kappa the flattened weights still avoid hot node 1 *)
    Alcotest.(check (list int)) "avoids hot node" [ 0; 2; 3 ] route.Router.path
  | None -> Alcotest.fail "connected"

let test_ospf_fidelity_bounds () =
  let env = diamond () in
  let f = Ospf.fidelity ~pair_cap:12 env in
  Alcotest.(check bool) "share in [0,1]" true
    (f.Ospf.exact_match >= 0.0 && f.Ospf.exact_match <= 1.0);
  Alcotest.(check bool) "gap non-negative" true (f.Ospf.risk_gap >= -1e-9)

(* --- Shared_risk --- *)

let mini_net name cities =
  let pops =
    Array.of_list
      (List.mapi
         (fun id (city, lat, lon) -> Rr_topology.Pop.make ~id ~city ~state:"XX" (coord lat lon))
         cities)
  in
  let graph = Rr_graph.Graph.create (Array.length pops) in
  for i = 0 to Array.length pops - 2 do
    Rr_graph.Graph.add_edge graph i (i + 1)
  done;
  Rr_topology.Net.make ~name ~tier:Rr_topology.Net.Regional pops graph

let test_shared_risk_correlation () =
  let riskmap = Rr_disaster.Riskmap.build (Rr_disaster.Catalog.generate ~scale:0.02 ()) in
  let gulf_a = mini_net "GulfA" [ ("NOLA", 29.95, -90.07); ("Mobile", 30.69, -88.04) ] in
  let gulf_b = mini_net "GulfB" [ ("NOLA2", 29.9, -90.1); ("Biloxi", 30.4, -88.89) ] in
  let west = mini_net "West" [ ("Seattle", 47.61, -122.33); ("Portland", 45.52, -122.68) ] in
  let same_region = Shared_risk.exposure_correlation ~riskmap gulf_a gulf_b in
  let cross_region = Shared_risk.exposure_correlation ~riskmap gulf_a west in
  Alcotest.(check bool) "co-located networks correlate more" true
    (same_region > cross_region);
  Alcotest.(check bool) "positive for overlapping" true (same_region > 0.5)

let test_shared_risk_joint_outage () =
  let gulf_a = mini_net "GulfA" [ ("NOLA", 29.95, -90.07) ] in
  let gulf_b = mini_net "GulfB" [ ("NOLA2", 29.9, -90.1) ] in
  let west = mini_net "West" [ ("Seattle", 47.61, -122.33) ] in
  let j =
    Shared_risk.joint_outage ~samples:1000 ~kind:Rr_disaster.Event.Fema_hurricane
      gulf_a gulf_b
  in
  Alcotest.(check bool) "both sides struck sometimes" true (j.Shared_risk.both_hit > 0.0);
  Alcotest.(check bool) "co-located strike correlation" true
    (j.Shared_risk.independence_gap > 0.0);
  let j2 =
    Shared_risk.joint_outage ~samples:1000 ~kind:Rr_disaster.Event.Fema_hurricane
      gulf_a west
  in
  Alcotest.(check bool) "west rarely hit by hurricanes" true
    (j2.Shared_risk.b_hit < 0.05)

let test_least_shared_peer () =
  let riskmap = Rr_disaster.Riskmap.build (Rr_disaster.Catalog.generate ~scale:0.02 ()) in
  let me = mini_net "Me" [ ("NOLA", 29.95, -90.07); ("Mobile", 30.69, -88.04) ] in
  let twin = mini_net "Twin" [ ("NOLA2", 29.9, -90.1); ("Gulfport", 30.37, -89.09) ] in
  let diverse = mini_net "Diverse" [ ("Seattle", 47.61, -122.33); ("Boise", 43.62, -116.2) ] in
  match Shared_risk.least_shared_peer ~riskmap ~candidates:[ twin; diverse ] me with
  | Some pick -> Alcotest.(check string) "prefers diversity" "Diverse" pick.Rr_topology.Net.name
  | None -> Alcotest.fail "candidates exist"

(* --- Outagesim --- *)

let test_outage_scenarios () =
  let env = diamond () in
  let scenarios =
    Outagesim.sample_scenarios ~kind:Rr_disaster.Event.Fema_hurricane ~count:50 env
  in
  Alcotest.(check int) "fifty scenarios" 50 (List.length scenarios);
  List.iter
    (fun (s : Outagesim.scenario) ->
      List.iter
        (fun v ->
          Alcotest.(check bool) "failed PoP inside radius" true
            (Rr_geo.Distance.miles s.Outagesim.center (Env.coords env).(v)
            <= s.Outagesim.radius_miles +. 1e-6))
        s.Outagesim.failed_pops)
    scenarios

let test_outage_run_bounds () =
  let env = diamond ~extra:[ (0, 3) ] () in
  let r = Outagesim.run ~scenario_count:60 ~pair_cap:12 env in
  Alcotest.(check int) "scenarios" 60 r.Outagesim.scenarios;
  List.iter
    (fun v -> Alcotest.(check bool) "fraction" true (v >= 0.0 && v <= 1.0))
    [
      r.Outagesim.shortest_survival; r.Outagesim.riskroute_survival;
      r.Outagesim.reactive_survival; r.Outagesim.endpoint_loss;
    ];
  Alcotest.(check bool) "reactive at least as good as static" true
    (r.Outagesim.reactive_survival >= r.Outagesim.shortest_survival -. 1e-9)

(* A radius must be a positive finite number: 0, negative and NaN radii
   would otherwise fail no PoP and report perfect survival. *)
let test_outage_rejects_bad_radius () =
  let env = diamond () in
  List.iter
    (fun radius_miles ->
      Alcotest.check_raises (Printf.sprintf "radius %g" radius_miles)
        (Invalid_argument "Outagesim: radius_miles must be a positive finite number")
        (fun () -> ignore (Outagesim.run ~radius_miles ~scenario_count:4 env)))
    [ 0.0; -10.0; Float.nan; Float.infinity ]

let test_outage_deterministic () =
  let env = diamond () in
  let rng () = Rr_util.Prng.create 5L in
  let a = Outagesim.run ~rng:(rng ()) ~scenario_count:40 ~pair_cap:12 env in
  let b = Outagesim.run ~rng:(rng ()) ~scenario_count:40 ~pair_cap:12 env in
  Alcotest.(check (float 1e-12)) "same seed same result" a.Outagesim.shortest_survival
    b.Outagesim.shortest_survival

(* The strikes [Outagesim.run] and [Availability.run] draw from a
   generator seeded with [seed]: both split the generator once for the
   traffic pairs, then once for the strikes. *)
let strikes ~seed ~count ?radius_miles env =
  let rng = Rr_util.Prng.create seed in
  ignore (Rr_util.Prng.split rng);
  Outagesim.sample_scenarios ~rng:(Rr_util.Prng.split rng) ?radius_miles
    ~kind:Rr_disaster.Event.Fema_hurricane ~count env

(* [outagesim.labelings] counts one connectivity labelling per strike
   that fails at least one PoP, in both analyses; quiet strikes take no
   labelling. *)
let test_outage_labelings_counted () =
  let env = diamond ~extra:[ (0, 3) ] () in
  let seed = 11L and count = 60 and radius_miles = 150.0 in
  let failing =
    List.length
      (List.filter
         (fun (s : Outagesim.scenario) -> s.Outagesim.failed_pops <> [])
         (strikes ~seed ~count ~radius_miles env))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d strikes fail a PoP" failing count)
    true
    (failing > 0 && failing < count);
  let labelings = Rr_obs.Counter.make "outagesim.labelings" in
  let delta f =
    Rr_obs.set_enabled true;
    Fun.protect ~finally:(fun () -> Rr_obs.set_enabled false) @@ fun () ->
    let before = Rr_obs.Counter.value labelings in
    ignore (f (Rr_util.Prng.create seed));
    Rr_obs.Counter.value labelings - before
  in
  Alcotest.(check int) "Outagesim.run" failing
    (delta (fun rng ->
         Outagesim.run ~rng ~scenario_count:count ~pair_cap:12 ~radius_miles env));
  Alcotest.(check int) "Availability.run" failing
    (delta (fun rng ->
         Availability.run ~rng ~samples:count ~pair_cap:12 ~radius_miles env))

(* On a disconnected network the reactive posture of a quiet strike
   (no failed PoP) counts every pair as a survivor, including pairs
   that had no path before the strike; a strike that fails any PoP
   counts those pairs as lost. Components: Miami-Tampa,
   Seattle-Portland and Denver alone. *)
let test_outage_disconnected_quirk () =
  let coords =
    [|
      coord 25.76 (-80.19); coord 27.95 (-82.46); coord 47.61 (-122.33);
      coord 45.52 (-122.68); coord 39.74 (-104.99);
    |]
  in
  let component = [| 0; 0; 1; 1; 2 |] in
  let graph = Rr_graph.Graph.of_edges 5 [ (0, 1); (2, 3) ] in
  let env =
    Env.make ~graph ~coords ~impact:(Array.make 5 0.2)
      ~historical:(Array.make 5 1e-5) ()
  in
  let seed = 3L and count = 80 and pair_cap = 20 in
  let quiet =
    Outagesim.run ~rng:(Rr_util.Prng.create seed) ~scenario_count:count
      ~pair_cap ~radius_miles:0.001 env
  in
  Alcotest.(check int) "all 20 ordered pairs" 20 quiet.Outagesim.pairs;
  Alcotest.(check (float 1e-12)) "quiet: 4 of 20 pairs have a static path" 0.2
    quiet.Outagesim.shortest_survival;
  Alcotest.(check (float 0.0)) "quiet: every pair survives reactively" 1.0
    quiet.Outagesim.reactive_survival;
  let radius_miles = 250.0 in
  let scenarios = strikes ~seed ~count ~radius_miles env in
  (* Per strike: quiet counts every pair; otherwise a live pair survives
     exactly when its endpoints share a component (no component has a
     third PoP a strike could cut). *)
  let contribution (s : Outagesim.scenario) =
    if s.Outagesim.failed_pops = [] then 1.0
    else begin
      let failed v = List.mem v s.Outagesim.failed_pops in
      let live = ref 0 and ok = ref 0 in
      for src = 0 to 4 do
        for dst = 0 to 4 do
          if src <> dst && not (failed src || failed dst) then begin
            incr live;
            if component.(src) = component.(dst) then incr ok
          end
        done
      done;
      if !live = 0 then 0.0 else float_of_int !ok /. float_of_int !live
    end
  in
  let lost_disconnected =
    List.exists
      (fun (s : Outagesim.scenario) ->
        s.Outagesim.failed_pops <> [] && contribution s < 1.0
        && contribution s > 0.0)
      scenarios
  in
  Alcotest.(check bool) "some failing strike leaves disconnected live pairs" true
    lost_disconnected;
  let expected =
    List.fold_left (fun acc s -> acc +. contribution s) 0.0 scenarios
    /. float_of_int count
  in
  let r =
    Outagesim.run ~rng:(Rr_util.Prng.create seed) ~scenario_count:count
      ~pair_cap ~radius_miles env
  in
  Alcotest.(check (float 0.0)) "reactive survival" expected
    r.Outagesim.reactive_survival

(* Strikes as the sampler resolved them before the disk window: one
   great-circle distance per (strike, PoP) through a literal filter,
   and in the probabilistic model one draw per PoP within three radii,
   interleaved with the centres' draws. *)
let literal_strikes ~seed ~kind ~radius_miles ~probabilistic ~count coords =
  let rng = Rr_util.Prng.create seed in
  let model = Rr_disaster.Model.for_kind kind in
  let sample = Rr_disaster.Model.sampler model ~seed:(Rr_util.Prng.int64 rng) in
  let fails center v =
    let d = Rr_geo.Distance.miles center coords.(v) in
    if probabilistic then begin
      let z = d /. radius_miles in
      d <= 3.0 *. radius_miles && Rr_util.Prng.float rng 1.0 < exp (-.(z *. z))
    end
    else d <= radius_miles
  in
  List.init count (fun _ ->
      let center = sample rng in
      let failed_pops =
        List.filter (fails center) (List.init (Array.length coords) Fun.id)
      in
      { Outagesim.center; radius_miles; failed_pops })

(* The windowed sampler equals the literal one over every kind, radius
   and seed, in both failure models. Besides fixed PoPs (Gulf and
   inland cities, points near both poles, both sides of the
   antimeridian), each case places PoPs on the radius and on three
   radii (the probabilistic model's reach) of its first three strikes
   (the farthest point along a bearing with [miles centre p <= reach])
   and just beyond each. *)
let test_outage_window_matches_literal () =
  let fixed =
    [|
      coord 29.95 (-90.07); coord 25.76 (-80.19); coord 29.76 (-95.37);
      coord 41.88 (-87.63); coord 39.74 (-104.99); coord 89.5 10.0;
      coord 88.99 (-100.0); coord (-89.5) (-170.0); coord 10.0 179.99;
      coord 10.0 (-179.99); coord 52.0 180.0; coord 52.0 (-180.0);
    |]
  in
  let count = 25 in
  List.iter
    (fun kind ->
      List.iter
        (fun radius_miles ->
          for s = 1 to 7 do
            let seed = Int64.of_int s in
            let centres =
              literal_strikes ~seed ~kind ~radius_miles ~probabilistic:false ~count
                [||]
              |> List.map (fun (sc : Outagesim.scenario) -> sc.Outagesim.center)
            in
            let edges =
              List.concat_map
                (fun c ->
                  List.concat_map
                    (fun (b, radius) ->
                      let bearing = float_of_int b *. Float.pi /. 4.0 in
                      match Disk_edge.edge_points c ~radius ~bearing with
                      | None -> []
                      | Some (on, beyond) -> [ on; beyond ])
                    (List.concat_map
                       (fun b -> [ (b, radius_miles); (b, 3.0 *. radius_miles) ])
                       (List.init 8 Fun.id)))
                (List.filteri (fun i _ -> i < 3) centres)
            in
            let coords = Array.append fixed (Array.of_list edges) in
            let n = Array.length coords in
            let env =
              Env.make ~graph:(Rr_graph.Graph.create n) ~coords
                ~impact:(Array.make n (1.0 /. float_of_int n))
                ~historical:(Array.make n 0.0) ()
            in
            List.iter
              (fun probabilistic ->
                let got =
                  Outagesim.sample_scenarios ~rng:(Rr_util.Prng.create seed)
                    ~radius_miles ~probabilistic ~kind ~count env
                in
                let want =
                  literal_strikes ~seed ~kind ~radius_miles ~probabilistic ~count
                    coords
                in
                if got <> want then
                  Alcotest.failf "%s radius %g seed %d probabilistic %b differs"
                    (Rr_disaster.Event.kind_name kind) radius_miles s probabilistic)
              [ false; true ]
          done)
        [ 1.0; 30.0; 80.0; 250.0; 1000.0 ])
    Rr_disaster.Event.all_kinds

(* --- seasonality --- *)

let test_event_months () =
  let catalog = Rr_disaster.Catalog.generate ~seed:7L ~scale:0.02 () in
  Array.iter
    (fun (e : Rr_disaster.Event.t) ->
      Alcotest.(check bool) "month in range" true
        (e.Rr_disaster.Event.month >= 1 && e.Rr_disaster.Event.month <= 12))
    (Rr_disaster.Catalog.events catalog)

let test_hurricanes_seasonal () =
  let catalog = Rr_disaster.Catalog.generate ~seed:7L ~scale:0.1 () in
  let in_season =
    Rr_disaster.Catalog.coords_in_months catalog Rr_disaster.Event.Fema_hurricane
      ~months:[ 8; 9; 10 ]
  in
  let off_season =
    Rr_disaster.Catalog.coords_in_months catalog Rr_disaster.Event.Fema_hurricane
      ~months:[ 1; 2; 3 ]
  in
  Alcotest.(check bool) "season dominates" true
    (Array.length in_season > 10 * max 1 (Array.length off_season))

let test_seasonal_riskmap () =
  let catalog = Rr_disaster.Catalog.generate ~seed:7L ~scale:0.1 () in
  let nola = coord 29.95 (-90.07) in
  let season = Rr_disaster.Riskmap.build_seasonal ~months:[ 8; 9 ] catalog in
  let winter = Rr_disaster.Riskmap.build_seasonal ~months:[ 1; 2 ] catalog in
  Alcotest.(check bool) "Gulf riskier in hurricane season" true
    (Rr_disaster.Riskmap.risk_at season nola > Rr_disaster.Riskmap.risk_at winter nola)

let test_month_weights_normalised () =
  List.iter
    (fun kind ->
      let w = Rr_disaster.Model.month_weights kind in
      Alcotest.(check int) "twelve months" 12 (Array.length w);
      Alcotest.(check (float 1e-6)) "sums to one" 1.0 (Rr_util.Arrayx.fsum w))
    Rr_disaster.Event.all_kinds

(* --- GeoJSON --- *)

let test_geojson_point () =
  let f =
    Rr_geo.Geojson.feature ~properties:[ ("name", "NOLA") ]
      (Rr_geo.Geojson.Point (coord 29.95 (-90.07)))
  in
  let s = Rr_geo.Geojson.feature_collection [ f ] in
  let contains needle =
    let nl = String.length needle and hl = String.length s in
    let rec scan i = i + nl <= hl && (String.sub s i nl = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "collection" true (contains {|"FeatureCollection"|});
  Alcotest.(check bool) "lon first" true (contains "[-90.07000,29.95000]");
  Alcotest.(check bool) "property" true (contains {|"name":"NOLA"|})

let test_geojson_polygon_closed () =
  let ring = [ coord 30.0 (-90.0); coord 31.0 (-90.0); coord 31.0 (-89.0) ] in
  let s =
    Rr_geo.Geojson.feature_collection
      [ Rr_geo.Geojson.feature (Rr_geo.Geojson.Polygon ring) ]
  in
  (* first position must re-appear as the last one *)
  let first = "[-90.00000,30.00000]" in
  let count needle =
    let nl = String.length needle in
    let rec scan i acc =
      if i + nl > String.length s then acc
      else if String.sub s i nl = needle then scan (i + 1) (acc + 1)
      else scan (i + 1) acc
    in
    scan 0 0
  in
  Alcotest.(check int) "ring closed" 2 (count first)

let test_geojson_circle () =
  match Rr_geo.Geojson.circle ~center:(coord 30.0 (-90.0)) ~radius_miles:100.0 () with
  | Rr_geo.Geojson.Polygon ring ->
    Alcotest.(check int) "48 segments" 48 (List.length ring);
    List.iter
      (fun p ->
        let d = Rr_geo.Distance.miles p (coord 30.0 (-90.0)) in
        Alcotest.(check bool) "on the circle" true (Float.abs (d -. 100.0) < 5.0))
      ring
  | _ -> Alcotest.fail "expected polygon"

let test_geo_export_net () =
  let net = mini_net "Mini" [ ("A", 30.0, -90.0); ("B", 31.0, -91.0) ] in
  let features = Rr_topology.Geo_export.net_features net in
  (* 2 PoPs + 1 link *)
  Alcotest.(check int) "three features" 3 (List.length features);
  let path = Filename.temp_file "riskroute" ".geojson" in
  Rr_topology.Geo_export.to_file path net;
  let size = (Unix.stat path).Unix.st_size in
  Sys.remove path;
  Alcotest.(check bool) "non-empty file" true (size > 100)

let () =
  Alcotest.run "extensions"
    [
      ( "kpaths",
        [
          Alcotest.test_case "first is shortest" `Quick test_yen_first_is_shortest;
          Alcotest.test_case "sorted and distinct" `Quick test_yen_sorted_and_distinct;
          Alcotest.test_case "costs match" `Quick test_yen_costs_match_paths;
          Alcotest.test_case "loopless" `Quick test_yen_loopless;
          Alcotest.test_case "exhausts" `Quick test_yen_exhausts;
        ] );
      ( "pareto",
        [
          Alcotest.test_case "diamond frontier" `Quick test_pareto_frontier_diamond;
          Alcotest.test_case "no dominated points" `Quick test_pareto_no_dominated_points;
          Alcotest.test_case "contains extremes" `Quick test_pareto_contains_extremes;
          Alcotest.test_case "sweep monotone" `Quick test_pareto_sweep_monotone;
          Alcotest.test_case "knee" `Quick test_pareto_knee;
        ] );
      ( "backup",
        [
          Alcotest.test_case "diamond plan" `Quick test_backup_plan_diamond;
          Alcotest.test_case "partition" `Quick test_backup_partition;
          Alcotest.test_case "route avoiding" `Quick test_backup_route_avoiding;
        ] );
      ( "ospf",
        [
          Alcotest.test_case "weight shape" `Quick test_ospf_weights_shape;
          Alcotest.test_case "spf route" `Quick test_ospf_spf_route;
          Alcotest.test_case "fidelity bounds" `Quick test_ospf_fidelity_bounds;
        ] );
      ( "shared-risk",
        [
          Alcotest.test_case "exposure correlation" `Quick test_shared_risk_correlation;
          Alcotest.test_case "joint outage" `Quick test_shared_risk_joint_outage;
          Alcotest.test_case "least shared peer" `Quick test_least_shared_peer;
        ] );
      ( "outagesim",
        [
          Alcotest.test_case "scenarios" `Quick test_outage_scenarios;
          Alcotest.test_case "run bounds" `Quick test_outage_run_bounds;
          Alcotest.test_case "rejects bad radius" `Quick test_outage_rejects_bad_radius;
          Alcotest.test_case "deterministic" `Quick test_outage_deterministic;
          Alcotest.test_case "labelings counted" `Quick test_outage_labelings_counted;
          Alcotest.test_case "disconnected network" `Quick
            test_outage_disconnected_quirk;
          Alcotest.test_case "windowed strikes equal the literal filter" `Quick
            test_outage_window_matches_literal;
        ] );
      ( "seasonality",
        [
          Alcotest.test_case "event months" `Quick test_event_months;
          Alcotest.test_case "hurricanes seasonal" `Quick test_hurricanes_seasonal;
          Alcotest.test_case "seasonal riskmap" `Quick test_seasonal_riskmap;
          Alcotest.test_case "month weights" `Quick test_month_weights_normalised;
        ] );
      ( "geojson",
        [
          Alcotest.test_case "point feature" `Quick test_geojson_point;
          Alcotest.test_case "polygon closed" `Quick test_geojson_polygon_closed;
          Alcotest.test_case "circle" `Quick test_geojson_circle;
          Alcotest.test_case "network export" `Quick test_geo_export_net;
        ] );
    ]
