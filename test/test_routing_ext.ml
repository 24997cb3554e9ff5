(* Tests for the interdomain/operational extensions: valley-free BGP
   policy routing, MRC backup configurations, gravity traffic matrices,
   and availability accounting. *)

open Riskroute

let coord lat lon = Rr_geo.Coord.make ~lat ~lon

let mk_net ?(tier = Rr_topology.Net.Regional) name cities edges =
  let pops =
    Array.of_list
      (List.mapi
         (fun id (city, lat, lon) ->
           Rr_topology.Pop.make ~id ~city ~state:"XX" (coord lat lon))
         cities)
  in
  Rr_topology.Net.make ~name ~tier pops
    (Rr_graph.Graph.of_edges (Array.length pops) edges)

(* Three-AS chain: regional A -- tier1 T -- regional B, where A and B also
   peer directly through a co-located PoP pair. The direct A--B peering is
   valley-free for A<->B traffic; transit THROUGH a regional is not. *)
let triad () =
  let a =
    mk_net "A"
      [ ("Austin", 30.27, -97.74); ("Dallas", 32.78, -96.8) ]
      [ (0, 1) ]
  in
  let t =
    mk_net ~tier:Rr_topology.Net.Tier1 "T"
      [ ("Dallas", 32.78, -96.8); ("Chicago", 41.88, -87.63); ("Denver", 39.74, -104.99) ]
      [ (0, 1); (1, 2); (0, 2) ]
  in
  let b =
    mk_net "B"
      [ ("Chicago", 41.88, -87.63); ("Milwaukee", 43.04, -87.91) ]
      [ (0, 1) ]
  in
  let peering =
    { Rr_topology.Peering.nets = [| t; a; b |]; edges = [ (0, 1); (0, 2); (1, 2) ] }
  in
  let merged = Interdomain.merge peering in
  let n = Interdomain.node_count merged in
  let env =
    Env.make
      ~graph:(Interdomain.graph merged)
      ~coords:
        (Array.init n (fun v ->
             let owner = Interdomain.owner merged v in
             let nets = [| t; a; b |] in
             let offset = v - Interdomain.node_id merged ~net:owner ~pop:0 in
             (Rr_topology.Net.pop nets.(owner) offset).Rr_topology.Pop.coord))
      ~impact:(Array.make n (1.0 /. float_of_int n))
      ~historical:(Array.make n 1e-6)
      ()
  in
  (merged, env)

(* --- Peering relationships --- *)

let test_relationships () =
  let merged, _ = triad () in
  let peering = Interdomain.peering merged in
  Alcotest.(check bool) "regional -> tier1 is c2p" true
    (Rr_topology.Peering.relationship peering 1 0
    = Some Rr_topology.Peering.Customer_to_provider);
  Alcotest.(check bool) "tier1 -> regional is p2c" true
    (Rr_topology.Peering.relationship peering 0 1
    = Some Rr_topology.Peering.Provider_to_customer);
  Alcotest.(check bool) "regional -- regional is p2p" true
    (Rr_topology.Peering.relationship peering 1 2
    = Some Rr_topology.Peering.Peer_to_peer);
  Alcotest.(check bool) "non-peers have no relationship" true
    (let zoo = Rr_topology.Zoo.shared () in
     let p = zoo.Rr_topology.Zoo.peering in
     (* find some non-peering pair among regionals *)
     let non_peer =
       List.find_opt
         (fun (i, j) -> not (Rr_topology.Peering.are_peers p i j))
         (Rr_util.Listx.pairs (Rr_util.Listx.range 7 23))
     in
     match non_peer with
     | Some (i, j) -> Rr_topology.Peering.relationship p i j = None
     | None -> true)

(* --- Bgp --- *)

let test_bgp_route_exists () =
  let merged, env = triad () in
  (* Austin (A) -> Milwaukee (B): A -> T -> B is customer->provider then
     provider->customer: valley-free *)
  let src = Interdomain.node_id merged ~net:1 ~pop:0 in
  let dst = Interdomain.node_id merged ~net:2 ~pop:1 in
  match Bgp.route merged env ~src ~dst with
  | Some route ->
    Alcotest.(check bool) "multi-hop" true (List.length route.Router.path >= 3)
  | None -> Alcotest.fail "valley-free path exists"

let test_bgp_bounds_ordering () =
  let merged, env = triad () in
  let src = Interdomain.node_id merged ~net:1 ~pop:0 in
  let dst = Interdomain.node_id merged ~net:2 ~pop:1 in
  match Bgp.bounds merged env ~src ~dst with
  | Some b ->
    Alcotest.(check bool) "lower <= policy" true (b.Bgp.lower <= b.Bgp.policy +. 1e-6);
    Alcotest.(check bool) "policy finite" true (Float.is_finite b.Bgp.policy)
  | None -> Alcotest.fail "routable"

let test_bgp_no_valley () =
  (* Tier-1 to Tier-1 traffic must not transit a customer: build a case
     where the ONLY physical path dips through a regional. *)
  let t1 =
    mk_net ~tier:Rr_topology.Net.Tier1 "T1" [ ("Dallas", 32.78, -96.8) ] []
  in
  let t2 =
    mk_net ~tier:Rr_topology.Net.Tier1 "T2" [ ("Chicago", 41.88, -87.63) ] []
  in
  let r =
    mk_net "R"
      [ ("Dallas", 32.78, -96.8); ("Chicago", 41.88, -87.63) ]
      [ (0, 1) ]
  in
  (* T1 -- R and R -- T2 peer (provider-customer both ways); T1 and T2 do
     not peer directly. The only path T1 -> T2 descends into customer R
     then climbs back up: a valley. *)
  let peering =
    { Rr_topology.Peering.nets = [| t1; t2; r |]; edges = [ (0, 2); (1, 2) ] }
  in
  let merged = Interdomain.merge peering in
  let n = Interdomain.node_count merged in
  let env =
    Env.make
      ~graph:(Interdomain.graph merged)
      ~coords:
        [| coord 32.78 (-96.8); coord 41.88 (-87.63); coord 32.78 (-96.8); coord 41.88 (-87.63) |]
      ~impact:(Array.make n 0.25)
      ~historical:(Array.make n 1e-6)
      ()
  in
  let src = Interdomain.node_id merged ~net:0 ~pop:0 in
  let dst = Interdomain.node_id merged ~net:1 ~pop:0 in
  (* physically connected ... *)
  Alcotest.(check bool) "physical path exists" true
    (Router.shortest env ~src ~dst <> None);
  (* ... but not valley-free *)
  Alcotest.(check bool) "no valley-free route" true (Bgp.route merged env ~src ~dst = None)

let test_bgp_self_route () =
  let merged, env = triad () in
  let src = Interdomain.node_id merged ~net:1 ~pop:0 in
  match Bgp.route merged env ~src ~dst:src with
  | Some route -> Alcotest.(check (list int)) "trivial" [ src ] route.Router.path
  | None -> Alcotest.fail "self route"

(* --- Mrc --- *)

let ring_env n =
  let graph = Rr_graph.Graph.create n in
  for i = 0 to n - 1 do
    Rr_graph.Graph.add_edge graph i ((i + 1) mod n)
  done;
  Env.make ~graph
    ~coords:(Array.init n (fun i -> coord (30.0 +. float_of_int i) (-100.0)))
    ~impact:(Array.make n (1.0 /. float_of_int n))
    ~historical:(Array.init n (fun i -> if i mod 2 = 0 then 1e-5 else 1e-7))
    ()

let test_mrc_ring_coverage () =
  let env = ring_env 8 in
  let mrc = Mrc.build ~k:4 env in
  (* on a ring, removing any single node keeps the rest connected *)
  Alcotest.(check (float 1e-9)) "full coverage" 1.0 (Mrc.coverage mrc);
  for v = 0 to 7 do
    Alcotest.(check bool) "every node assigned" true (Mrc.config_of_node mrc v <> None)
  done

let test_mrc_recovery_avoids_failure () =
  let env = ring_env 8 in
  let mrc = Mrc.build ~k:4 env in
  for failed = 1 to 6 do
    match Mrc.recovery_route mrc ~failed ~src:0 ~dst:7 with
    | Some route ->
      Alcotest.(check bool) "avoids failed node" false
        (List.mem failed route.Router.path)
    | None ->
      (* a ring minus one interior node still connects 0 and 7 *)
      Alcotest.fail "ring recovery must exist"
  done

let test_mrc_endpoint_failure () =
  let env = ring_env 6 in
  let mrc = Mrc.build ~k:3 env in
  Alcotest.(check bool) "no recovery when the endpoint died" true
    (Mrc.recovery_route mrc ~failed:0 ~src:0 ~dst:3 = None)

let test_mrc_chain_articulation () =
  (* a path graph: every interior node is an articulation point, so no
     configuration can isolate it while keeping survivors connected *)
  let graph = Rr_graph.Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  let env =
    Env.make ~graph
      ~coords:(Array.init 4 (fun i -> coord (30.0 +. float_of_int i) (-100.0)))
      ~impact:(Array.make 4 0.25)
      ~historical:(Array.make 4 1e-6)
      ()
  in
  let mrc = Mrc.build ~k:3 env in
  (* whatever the grouping, losing the articulation point 1 physically
     separates 0 from 3: recovery must honestly report failure *)
  Alcotest.(check bool) "no recovery through the cut" true
    (Mrc.recovery_route mrc ~failed:1 ~src:0 ~dst:3 = None);
  (* and each configuration's survivors stay connected: a route between
     two survivors of the same side always exists *)
  match Mrc.config_of_node mrc 1 with
  | None -> ()
  | Some config ->
    (match Mrc.route mrc ~config ~src:2 ~dst:3 with
    | Some _ -> ()
    | None -> Alcotest.fail "survivor-side routing must work")

let test_mrc_validation () =
  let env = ring_env 4 in
  Alcotest.check_raises "k < 1" (Invalid_argument "Mrc.build: k < 1") (fun () ->
      ignore (Mrc.build ~k:0 env))

(* --- Traffic --- *)

let square_net () =
  mk_net "Sq"
    [
      ("NYC", 40.71, -74.01); ("Philly", 39.95, -75.17);
      ("Chicago", 41.88, -87.63); ("Denver", 39.74, -104.99);
    ]
    [ (0, 1); (1, 2); (2, 3); (0, 2) ]

let test_traffic_gravity_shape () =
  let net = square_net () in
  let tm =
    Rr_topology.Traffic.gravity ~populations:[| 0.5; 0.2; 0.2; 0.1 |] net
  in
  Alcotest.(check (float 1e-6)) "normalised" 1000.0 (Rr_topology.Traffic.total tm);
  Alcotest.(check (float 1e-12)) "no self traffic" 0.0 (Rr_topology.Traffic.demand tm 1 1);
  (* the NYC-Philly pair: biggest populations and shortest distance *)
  match Rr_topology.Traffic.top_flows tm 1 with
  | [ (i, j, _) ] ->
    Alcotest.(check bool) "NYC-Philly dominates" true
      ((i = 0 && j = 1) || (i = 1 && j = 0))
  | _ -> Alcotest.fail "top flow"

let test_traffic_symmetry () =
  let net = square_net () in
  let tm = Rr_topology.Traffic.gravity ~populations:[| 0.4; 0.3; 0.2; 0.1 |] net in
  for i = 0 to 3 do
    for j = 0 to 3 do
      Alcotest.(check (float 1e-9)) "gravity symmetric"
        (Rr_topology.Traffic.demand tm i j)
        (Rr_topology.Traffic.demand tm j i)
    done
  done

let test_traffic_alpha_effect () =
  let net = square_net () in
  let pops = [| 0.25; 0.25; 0.25; 0.25 |] in
  let near = Rr_topology.Traffic.gravity ~alpha:2.0 ~populations:pops net in
  let flat = Rr_topology.Traffic.gravity ~alpha:0.0 ~populations:pops net in
  (* higher alpha concentrates traffic on short pairs *)
  let share tm = Rr_topology.Traffic.demand tm 0 1 /. Rr_topology.Traffic.total tm in
  Alcotest.(check bool) "alpha concentrates demand locally" true
    (share near > share flat)

let test_traffic_validation () =
  let net = square_net () in
  Alcotest.check_raises "bad populations"
    (Invalid_argument "Traffic.gravity: population length mismatch") (fun () ->
      ignore (Rr_topology.Traffic.gravity ~populations:[| 1.0 |] net))

let test_weighted_ratios () =
  (* weighting a single pair reproduces that pair's ratio *)
  let coords =
    [| coord 29.76 (-95.37); coord 29.95 (-90.07); coord 36.16 (-86.78); coord 30.33 (-81.66) |]
  in
  let graph = Rr_graph.Graph.of_edges 4 [ (0, 1); (1, 3); (0, 2); (2, 3) ] in
  let env =
    Env.make ~graph ~coords ~impact:[| 0.4; 0.3; 0.1; 0.2 |]
      ~historical:[| 1e-5; 3e-4; 1e-7; 2e-5 |] ()
  in
  let weight i j = if i = 0 && j = 3 then 1.0 else 0.0 in
  let r = Ratios.weighted ~weight env in
  Alcotest.(check int) "single weighted pair" 1 r.Ratios.pairs;
  let rr = Option.get (Router.riskroute env ~src:0 ~dst:3) in
  let sp = Option.get (Router.shortest env ~src:0 ~dst:3) in
  Alcotest.(check (float 1e-9)) "pair ratio"
    (1.0 -. (rr.Router.bit_risk_miles /. sp.Router.bit_risk_miles))
    r.Ratios.risk_reduction

(* --- Availability --- *)

let test_availability_nines () =
  Alcotest.(check (float 1e-9)) "five nines" 5.0 (Availability.nines 0.99999);
  Alcotest.(check bool) "perfect" true (Availability.nines 1.0 = infinity);
  Alcotest.(check (float 1.0)) "five nines downtime ~ 5.3 min/yr" 5.3
    (Availability.downtime_minutes_per_year 0.99999)

let test_availability_ordering () =
  let zoo = Rr_topology.Zoo.shared () in
  let net = Option.get (Rr_topology.Zoo.find zoo "Sprint") in
  let env = Env.of_net net in
  let a = Availability.run ~samples:150 ~pair_cap:80 env in
  Alcotest.(check bool) "riskroute >= shortest" true
    (a.Availability.riskroute >= a.Availability.shortest -. 0.002);
  Alcotest.(check bool) "reactive best" true
    (a.Availability.reactive >= a.Availability.riskroute -. 0.002);
  Alcotest.(check bool) "availabilities in [0,1]" true
    (a.Availability.shortest >= 0.0 && a.Availability.reactive <= 1.0)

let test_availability_mttr_scaling () =
  let zoo = Rr_topology.Zoo.shared () in
  let net = Option.get (Rr_topology.Zoo.find zoo "Globalcenter") in
  let env = Env.of_net net in
  let rng () = Rr_util.Prng.create 6L in
  let short = Availability.run ~rng:(rng ()) ~samples:100 ~pair_cap:40 ~mttr_hours:2.0 env in
  let long = Availability.run ~rng:(rng ()) ~samples:100 ~pair_cap:40 ~mttr_hours:24.0 env in
  Alcotest.(check bool) "longer repairs hurt availability" true
    (long.Availability.shortest <= short.Availability.shortest +. 1e-9)

(* MTTR and radius must be positive finite numbers: a NaN MTTR used to
   print "nan" availability and "-nan nines". *)
let test_availability_rejects_bad_inputs () =
  let env =
    Env.make
      ~graph:(Rr_graph.Graph.of_edges 3 [ (0, 1); (1, 2) ])
      ~coords:
        (Array.map
           (fun (lat, lon) -> Rr_geo.Coord.make ~lat ~lon)
           [| (29.76, -95.37); (29.95, -90.07); (30.33, -81.66) |])
      ~impact:(Array.make 3 (1.0 /. 3.0))
      ~historical:(Array.make 3 1e-6) ()
  in
  List.iter
    (fun mttr_hours ->
      Alcotest.check_raises (Printf.sprintf "mttr %g" mttr_hours)
        (Invalid_argument "Availability.run: MTTR must be a positive finite number")
        (fun () -> ignore (Availability.run ~samples:4 ~mttr_hours env)))
    [ 0.0; -1.0; Float.nan ];
  List.iter
    (fun radius_miles ->
      Alcotest.check_raises (Printf.sprintf "radius %g" radius_miles)
        (Invalid_argument "Outagesim: radius_miles must be a positive finite number")
        (fun () -> ignore (Availability.run ~samples:4 ~radius_miles env)))
    [ 0.0; -10.0; Float.nan ]

let () =
  Alcotest.run "routing-extensions"
    [
      ( "relationships",
        [ Alcotest.test_case "triad relationships" `Quick test_relationships ] );
      ( "bgp",
        [
          Alcotest.test_case "route exists" `Quick test_bgp_route_exists;
          Alcotest.test_case "bounds ordering" `Quick test_bgp_bounds_ordering;
          Alcotest.test_case "valley rejected" `Quick test_bgp_no_valley;
          Alcotest.test_case "self route" `Quick test_bgp_self_route;
        ] );
      ( "mrc",
        [
          Alcotest.test_case "ring coverage" `Quick test_mrc_ring_coverage;
          Alcotest.test_case "recovery avoids failure" `Quick test_mrc_recovery_avoids_failure;
          Alcotest.test_case "endpoint failure" `Quick test_mrc_endpoint_failure;
          Alcotest.test_case "chain articulation" `Quick test_mrc_chain_articulation;
          Alcotest.test_case "validation" `Quick test_mrc_validation;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "gravity shape" `Quick test_traffic_gravity_shape;
          Alcotest.test_case "symmetry" `Quick test_traffic_symmetry;
          Alcotest.test_case "alpha effect" `Quick test_traffic_alpha_effect;
          Alcotest.test_case "validation" `Quick test_traffic_validation;
          Alcotest.test_case "weighted ratios" `Quick test_weighted_ratios;
        ] );
      ( "availability",
        [
          Alcotest.test_case "nines" `Quick test_availability_nines;
          Alcotest.test_case "posture ordering" `Slow test_availability_ordering;
          Alcotest.test_case "mttr scaling" `Slow test_availability_mttr_scaling;
          Alcotest.test_case "rejects bad inputs" `Quick
            test_availability_rejects_bad_inputs;
        ] );
    ]
