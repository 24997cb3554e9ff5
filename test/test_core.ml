open Riskroute

let coord lat lon = Rr_geo.Coord.make ~lat ~lon

(* A 4-node diamond on the Gulf coast:

      1 (New Orleans-ish, hot)
     / \
    0   3        0 = Houston-ish, 3 = Jacksonville-ish
     \ /
      2 (Nashville-ish, cold)

   Node 1 carries historical risk, node 2 does not: RiskRoute should
   prefer 0-2-3 once lambda_h is large enough. *)
let diamond ?(params = Params.default) ?forecast () =
  let coords =
    [| coord 29.76 (-95.37); coord 29.95 (-90.07); coord 36.16 (-86.78); coord 30.33 (-81.66) |]
  in
  let graph = Rr_graph.Graph.of_edges 4 [ (0, 1); (1, 3); (0, 2); (2, 3) ] in
  let impact = [| 0.4; 0.3; 0.1; 0.2 |] in
  let historical = [| 1e-5; 3e-4; 1e-7; 2e-5 |] in
  Env.make ~params ~graph ~coords ~impact ~historical ?forecast ()

(* --- Params --- *)

let test_params_default () =
  Alcotest.(check (float 1e-9)) "lambda_h" 1e5 Params.default.Params.lambda_h;
  Alcotest.(check (float 1e-9)) "lambda_f" 1e3 Params.default.Params.lambda_f;
  Alcotest.(check (float 1e-9)) "rho_t" 50.0 Params.default.Params.rho_tropical;
  Alcotest.(check (float 1e-9)) "rho_h" 100.0 Params.default.Params.rho_hurricane

let test_params_validate () =
  Alcotest.check_raises "bad lambda_h"
    (Invalid_argument "Params: lambda_h must be positive") (fun () ->
      Params.validate { Params.default with Params.lambda_h = 0.0 });
  Alcotest.check_raises "bad rho order"
    (Invalid_argument "Params: need 0 <= rho_tropical <= rho_hurricane") (fun () ->
      Params.validate { Params.default with Params.rho_tropical = 200.0 })

let test_params_with () =
  let p = Params.with_lambda_h 7.0 Params.default in
  Alcotest.(check (float 1e-9)) "set" 7.0 p.Params.lambda_h;
  let p = Params.with_lambda_f 9.0 p in
  Alcotest.(check (float 1e-9)) "set f" 9.0 p.Params.lambda_f;
  Alcotest.(check (float 1e-9)) "h preserved" 7.0 p.Params.lambda_h

let test_params_eager_validation () =
  (* Setters and [make] reject bad values at construction, not at first
     use downstream. *)
  Alcotest.check_raises "with_lambda_h rejects zero"
    (Invalid_argument "Params: lambda_h must be positive") (fun () ->
      ignore (Params.with_lambda_h 0.0 Params.default));
  Alcotest.check_raises "with_lambda_f rejects negatives"
    (Invalid_argument "Params: lambda_f must be positive") (fun () ->
      ignore (Params.with_lambda_f (-1.0) Params.default));
  Alcotest.check_raises "make rejects bad rho order"
    (Invalid_argument "Params: need 0 <= rho_tropical <= rho_hurricane")
    (fun () -> ignore (Params.make ~rho_tropical:500.0 ()))

let test_params_make () =
  let p = Params.make ~lambda_h:2.0 ~lambda_f:3.0 () in
  Alcotest.(check (float 1e-9)) "lambda_h" 2.0 p.Params.lambda_h;
  Alcotest.(check (float 1e-9)) "lambda_f" 3.0 p.Params.lambda_f;
  Alcotest.(check (float 1e-9)) "risk_scale defaulted"
    Params.default.Params.risk_scale p.Params.risk_scale;
  Alcotest.(check bool) "no-arg make is default" true
    (Params.make () = Params.default)

(* --- Env --- *)

let test_env_length_validation () =
  let graph = Rr_graph.Graph.create 2 in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Env.make: array lengths must match the node count")
    (fun () ->
      ignore
        (Env.make ~graph
           ~coords:[| coord 0.0 0.0 |]
           ~impact:[| 1.0 |] ~historical:[| 0.0 |] ()))

let test_env_kappa () =
  let env = diamond () in
  Alcotest.(check (float 1e-9)) "kappa_03" 0.6 (Env.kappa env 0 3);
  Alcotest.(check (float 1e-9)) "mean kappa" 0.5 (Env.mean_kappa env)

(* [mean_kappa] is summed once per build; every derivative must still
   read the bitwise value of summing its own impact vector. *)
let test_env_mean_kappa_shared () =
  let net =
    Option.get (Rr_topology.Zoo.find (Rr_topology.Zoo.shared ()) "Level3")
  in
  let sandy i =
    List.nth (Rr_forecast.Track.advisories Rr_forecast.Track.sandy) i
  in
  let env = Env.of_net ~advisory:(sandy 40) net in
  let n = Env.node_count env in
  let next = Env.forecast (Env.with_advisory env (Some (sandy 41))) in
  let indices =
    List.filter
      (fun i ->
        Int64.bits_of_float next.(i)
        <> Int64.bits_of_float (Env.forecast env).(i))
      (List.init n Fun.id)
  in
  let indices = Array.of_list indices in
  let patched =
    (Env.patch env ~indices ~values:(Array.map (fun i -> next.(i)) indices))
      .Env.env
  in
  let g = Rr_graph.Graph.copy (Env.graph env) in
  Rr_graph.Graph.add_edge g 0 (n - 1);
  List.iter
    (fun (label, e) ->
      let expected =
        2.0 *. Rr_util.Arrayx.fsum (Env.impact e) /. float_of_int n
      in
      Alcotest.(check int64)
        (label ^ ": mean kappa bitwise")
        (Int64.bits_of_float expected)
        (Int64.bits_of_float (Env.mean_kappa e)))
    [
      ("built", env);
      ("patch", patched);
      ("with_advisory", Env.with_advisory env None);
      ("with_params", Env.with_params env (Params.with_lambda_h 3e5 Params.default));
      ("with_graph", Env.with_graph env g);
    ];
  Alcotest.(check bool) "the patch moved the field" true (Array.length indices > 0)

let test_env_node_risk () =
  let env = diamond () in
  let p = Env.params env in
  let expected = p.Params.lambda_h *. p.Params.risk_scale *. 3e-4 in
  Alcotest.(check (float 1e-6)) "node 1 risk" expected (Env.node_risk env 1)

let test_env_link_miles_cached () =
  let env = diamond () in
  let d1 = Env.link_miles env 0 1 in
  let d2 = Env.link_miles env 1 0 in
  Alcotest.(check (float 1e-9)) "symmetric via cache" d1 d2;
  Alcotest.(check bool) "Houston-NOLA ~ 320 mi" true (Float.abs (d1 -. 320.0) < 30.0)

let test_env_with_forecast () =
  let env = diamond () in
  let base_risk = Env.node_risk env 2 in
  let env' = Env.with_forecast env [| 0.0; 0.0; 100.0; 0.0 |] in
  let p = Env.params env' in
  Alcotest.(check (float 1e-6)) "forecast adds lambda_f * o_f"
    (base_risk +. (p.Params.lambda_f *. 100.0))
    (Env.node_risk env' 2);
  (* original untouched *)
  Alcotest.(check (float 1e-9)) "original unchanged" base_risk (Env.node_risk env 2)

let test_env_with_advisory () =
  let env = diamond () in
  (* disc over node 1 only *)
  let advisory =
    Rr_forecast.Advisory.make ~storm:"T" ~number:1 ~issued:"t"
      ~center:(coord 29.95 (-90.07)) ~hurricane_radius_miles:50.0
      ~tropical_radius_miles:100.0
  in
  let env' = Env.with_advisory env (Some advisory) in
  Alcotest.(check (float 1e-9)) "node 1 under hurricane winds" 100.0
    (Env.forecast env').(1);
  Alcotest.(check (float 1e-9)) "node 2 clear" 0.0 (Env.forecast env').(2);
  let cleared = Env.with_advisory env' None in
  Alcotest.(check (float 1e-9)) "cleared" 0.0 (Env.forecast cleared).(1)

let test_env_with_graph () =
  let env = diamond () in
  let g = Rr_graph.Graph.copy (Env.graph env) in
  Rr_graph.Graph.add_edge g 0 3;
  let env' = Env.with_graph env g in
  Alcotest.(check bool) "new edge" true (Rr_graph.Graph.has_edge (Env.graph env') 0 3);
  Alcotest.(check bool) "old env untouched" false
    (Rr_graph.Graph.has_edge (Env.graph env) 0 3);
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Env.with_graph: node-count mismatch") (fun () ->
      ignore (Env.with_graph env (Rr_graph.Graph.create 7)))

(* --- Metric --- *)

let test_metric_eq1_by_hand () =
  let env = diamond () in
  let path = [ 0; 1; 3 ] in
  let kappa = Env.kappa env 0 3 in
  let expected =
    Env.link_miles env 0 1 +. (kappa *. Env.node_risk env 1)
    +. Env.link_miles env 1 3
    +. (kappa *. Env.node_risk env 3)
  in
  Alcotest.(check (float 1e-6)) "Eq. 1" expected (Metric.bit_risk_miles env path)

let test_metric_bit_miles () =
  let env = diamond () in
  let expected = Env.link_miles env 0 1 +. Env.link_miles env 1 3 in
  Alcotest.(check (float 1e-9)) "distance only" expected (Metric.bit_miles env [ 0; 1; 3 ])

let test_metric_degenerate_paths () =
  let env = diamond () in
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Metric.bit_risk_miles env []);
  Alcotest.(check (float 1e-9)) "single" 0.0 (Metric.bit_risk_miles env [ 2 ])

let test_metric_source_risk_not_counted () =
  let env = diamond () in
  (* Eq. 1 sums from x = 2: the source node's own risk never appears *)
  let r13 = Metric.bit_risk_miles_kappa env ~kappa:1.0 [ 1; 3 ] in
  let expected = Env.link_miles env 1 3 +. Env.node_risk env 3 in
  Alcotest.(check (float 1e-6)) "only destination risk" expected r13

let test_metric_path_risk () =
  let env = diamond () in
  Alcotest.(check (float 1e-6)) "sum of node risks"
    (Env.node_risk env 1 +. Env.node_risk env 3)
    (Metric.path_risk env [ 0; 1; 3 ])

(* --- Router --- *)

let test_router_avoids_hot_node () =
  let env = diamond () in
  (match Router.riskroute env ~src:0 ~dst:3 with
  | Some route -> Alcotest.(check (list int)) "via cold node" [ 0; 2; 3 ] route.Router.path
  | None -> Alcotest.fail "connected");
  match Router.shortest env ~src:0 ~dst:3 with
  | Some route -> Alcotest.(check (list int)) "shortest via hot node" [ 0; 1; 3 ] route.Router.path
  | None -> Alcotest.fail "connected"

let test_router_riskroute_dominates () =
  let env = diamond () in
  let rr = Option.get (Router.riskroute env ~src:0 ~dst:3) in
  let sp = Option.get (Router.shortest env ~src:0 ~dst:3) in
  Alcotest.(check bool) "bit-risk lower" true
    (rr.Router.bit_risk_miles <= sp.Router.bit_risk_miles +. 1e-9);
  Alcotest.(check bool) "bit-miles higher" true
    (rr.Router.bit_miles >= sp.Router.bit_miles -. 1e-9)

let test_router_no_risk_equals_shortest () =
  let graph = Rr_graph.Graph.of_edges 4 [ (0, 1); (1, 3); (0, 2); (2, 3) ] in
  let env =
    Env.make ~graph
      ~coords:[| coord 29.76 (-95.37); coord 29.95 (-90.07); coord 36.16 (-86.78); coord 30.33 (-81.66) |]
      ~impact:[| 0.25; 0.25; 0.25; 0.25 |]
      ~historical:[| 0.0; 0.0; 0.0; 0.0 |] ()
  in
  let rr = Option.get (Router.riskroute env ~src:0 ~dst:3) in
  let sp = Option.get (Router.shortest env ~src:0 ~dst:3) in
  Alcotest.(check (list int)) "same path" sp.Router.path rr.Router.path

let test_router_disconnected () =
  let graph = Rr_graph.Graph.of_edges 3 [ (0, 1) ] in
  let env =
    Env.make ~graph
      ~coords:[| coord 30.0 (-90.0); coord 31.0 (-90.0); coord 32.0 (-90.0) |]
      ~impact:[| 0.5; 0.3; 0.2 |] ~historical:[| 0.0; 0.0; 0.0 |] ()
  in
  Alcotest.(check bool) "riskroute none" true (Router.riskroute env ~src:0 ~dst:2 = None);
  Alcotest.(check bool) "shortest none" true (Router.shortest env ~src:0 ~dst:2 = None)

let test_route_of_path () =
  let env = diamond () in
  let route = Router.route_of_path env [ 0; 1; 3 ] in
  Alcotest.(check (float 1e-9)) "bit miles" (Metric.bit_miles env [ 0; 1; 3 ])
    route.Router.bit_miles;
  Alcotest.(check (float 1e-9)) "bit risk" (Metric.bit_risk_miles env [ 0; 1; 3 ])
    route.Router.bit_risk_miles

(* random connected env generator for properties *)
let random_env_gen =
  QCheck.Gen.(
    int_range 3 10 >>= fun n ->
    list_size (int_range 0 15) (pair (int_bound (n - 1)) (int_bound (n - 1)))
    >>= fun extra ->
    array_size (return n) (float_range 0.0 3e-4) >>= fun historical ->
    return (n, extra, historical))

let arb_random_env =
  QCheck.make random_env_gen ~print:(fun (n, extra, _) ->
      Printf.sprintf "n=%d extra=%d" n (List.length extra))

let build_random_env (n, extra, historical) =
  let graph = Rr_graph.Graph.create n in
  for i = 0 to n - 2 do
    Rr_graph.Graph.add_edge graph i (i + 1) (* chain keeps it connected *)
  done;
  List.iter
    (fun (u, v) -> if u <> v then Rr_graph.Graph.add_edge graph u v)
    extra;
  let coords =
    Array.init n (fun i ->
        coord (28.0 +. float_of_int (i * 2)) (-120.0 +. float_of_int (i * 5)))
  in
  let impact = Array.make n (1.0 /. float_of_int n) in
  Env.make ~graph ~coords ~impact ~historical ()

let riskroute_never_riskier =
  QCheck.Test.make ~name:"riskroute bit-risk <= shortest bit-risk" ~count:200
    arb_random_env
    (fun spec ->
      let env = build_random_env spec in
      let n = Env.node_count env in
      match (Router.riskroute env ~src:0 ~dst:(n - 1), Router.shortest env ~src:0 ~dst:(n - 1)) with
      | Some rr, Some sp -> rr.Router.bit_risk_miles <= sp.Router.bit_risk_miles +. 1e-6
      | _ -> false)

let riskroute_cost_is_metric =
  QCheck.Test.make ~name:"riskroute cost equals Eq. 1 on its own path" ~count:200
    arb_random_env
    (fun spec ->
      let env = build_random_env spec in
      let n = Env.node_count env in
      match Router.riskroute env ~src:0 ~dst:(n - 1) with
      | Some rr ->
        Float.abs (rr.Router.bit_risk_miles -. Metric.bit_risk_miles env rr.Router.path)
        < 1e-6
      | None -> false)

(* --- Ratios --- *)

let test_ratios_no_risk_convention () =
  (* with zero risk, every pair ratio is exactly 1; the paper's 1/N^2
     denominator then gives rr = 1/N and dr = -1/N *)
  let graph = Rr_graph.Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let env =
    Env.make ~graph
      ~coords:[| coord 30.0 (-90.0); coord 32.0 (-95.0); coord 34.0 (-90.0); coord 32.0 (-85.0) |]
      ~impact:(Array.make 4 0.25)
      ~historical:(Array.make 4 0.0) ()
  in
  let r = Ratios.intradomain env in
  Alcotest.(check (float 1e-9)) "rr = 1/N" 0.25 r.Ratios.risk_reduction;
  Alcotest.(check (float 1e-9)) "dr = -1/N" (-0.25) r.Ratios.distance_increase;
  Alcotest.(check int) "all ordered pairs" 12 r.Ratios.pairs

let test_ratios_diamond () =
  let env = diamond () in
  let r = Ratios.intradomain env in
  Alcotest.(check bool) "positive reduction beyond 1/N" true
    (r.Ratios.risk_reduction > 0.25);
  Alcotest.(check int) "12 ordered pairs" 12 r.Ratios.pairs

let test_ratios_deterministic_sampling () =
  let env = diamond () in
  let a = Ratios.intradomain ~pair_cap:6 ~seed:1L env in
  let b = Ratios.intradomain ~pair_cap:6 ~seed:1L env in
  Alcotest.(check (float 1e-12)) "same seed same result" a.Ratios.risk_reduction
    b.Ratios.risk_reduction

let test_ratios_between () =
  let env = diamond () in
  let r = Ratios.between env ~sources:[| 0 |] ~dests:[| 1; 2; 3 |] in
  Alcotest.(check int) "three pairs" 3 r.Ratios.pairs;
  let empty = Ratios.between env ~sources:[||] ~dests:[| 1 |] in
  Alcotest.(check int) "no sources" 0 empty.Ratios.pairs

(* --- Augment --- *)

let test_augment_candidates_rule () =
  let env = diamond () in
  (* 0-3 direct is much shorter than 0-1-3; 1-2 may also qualify *)
  let candidates = Augment.candidates env in
  List.iter
    (fun (u, v) ->
      Alcotest.(check bool) "not an existing edge" false
        (Rr_graph.Graph.has_edge (Env.graph env) u v);
      let direct = Env.link_miles env u v in
      match Router.shortest env ~src:u ~dst:v with
      | Some current ->
        Alcotest.(check bool) "more than 50% shorter" true
          (direct < 0.5 *. current.Router.bit_miles)
      | None -> Alcotest.fail "connected")
    candidates

let test_augment_greedy_improves () =
  let env = diamond () in
  match Augment.greedy ~k:1 env with
  | [] -> Alcotest.fail "diamond has candidates"
  | pick :: _ ->
    Alcotest.(check bool) "fraction <= 1" true (pick.Augment.fraction <= 1.0 +. 1e-9);
    (* insertion-formula total must equal recomputing from scratch *)
    let g = Rr_graph.Graph.copy (Env.graph env) in
    Rr_graph.Graph.add_edge g pick.Augment.u pick.Augment.v;
    let recomputed = Augment.total_bit_risk (Env.with_graph env g) in
    Alcotest.(check bool) "matches brute force" true
      (Float.abs (recomputed -. pick.Augment.total_after) /. recomputed < 1e-9)

let test_augment_greedy_monotone () =
  let env = diamond () in
  let picks = Augment.greedy ~k:3 env in
  let fractions = List.map (fun p -> p.Augment.fraction) picks in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-12 && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone improvement" true (decreasing fractions)

let augment_insertion_matches_bruteforce =
  QCheck.Test.make ~name:"greedy insertion totals match recomputation" ~count:60
    arb_random_env
    (fun spec ->
      let env = build_random_env spec in
      match Augment.greedy ~k:1 ~max_candidates:50 env with
      | [] -> true
      | pick :: _ ->
        let g = Rr_graph.Graph.copy (Env.graph env) in
        Rr_graph.Graph.add_edge g pick.Augment.u pick.Augment.v;
        let recomputed = Augment.total_bit_risk (Env.with_graph env g) in
        Float.abs (recomputed -. pick.Augment.total_after)
        <= 1e-6 *. Float.max 1.0 recomputed)

(* Eq. 4 against a literal scan. A candidate's total is summed
   row-major over the ordered pairs i <> j, with the insertion minimum
   written with [Float.min] and infinite terms skipped, on the matrix of
   fresh per-source Dijkstra runs. Greedy's first pick must be the first
   candidate, in [candidates] order, with the least total, and its total
   must have that total's bits. PoPs sit on a few sites, so co-located
   PoPs are zero miles apart, and risk is integer-valued with kappa = 1,
   so equal-cost alternatives tie exactly; without the chain the graph
   may be disconnected. *)
let eq4_sites =
  [|
    coord 29.76 (-95.37); coord 25.76 (-80.19); coord 41.88 (-87.63);
    coord 39.74 (-104.99); coord 47.61 (-122.33);
  |]

let eq4_env_gen =
  QCheck.Gen.(
    int_range 3 12 >>= fun n ->
    int_range 1 (Array.length eq4_sites) >>= fun sites ->
    array_size (return n) (int_bound (sites - 1)) >>= fun site ->
    array_size (return n) (int_bound 3) >>= fun risk ->
    bool >>= fun chain ->
    list_size (int_range 0 (2 * n)) (pair (int_bound (n - 1)) (int_bound (n - 1)))
    >>= fun extra -> return (site, risk, chain, extra))

let build_eq4_env (site, risk, chain, extra) =
  let n = Array.length site in
  let graph = Rr_graph.Graph.create n in
  if chain then
    for i = 0 to n - 2 do
      Rr_graph.Graph.add_edge graph i (i + 1)
    done;
  List.iter (fun (u, v) -> if u <> v then Rr_graph.Graph.add_edge graph u v) extra;
  (* kappa = 2 * (n / 2) / n = 1 exactly; node risk = 1 * forecast. *)
  Env.make ~params:(Params.make ~lambda_f:1.0 ()) ~graph
    ~coords:(Array.map (fun s -> eq4_sites.(s)) site)
    ~impact:(Array.make n 0.5) ~historical:(Array.make n 0.0)
    ~forecast:(Array.map float_of_int risk) ()

let literal_eq4_total env m (u, v) =
  let kappa = Env.mean_kappa env in
  let wuv = Env.edge_weight env ~kappa u v and wvu = Env.edge_weight env ~kappa v u in
  let n = Array.length m in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let t =
          Float.min m.(i).(j)
            (Float.min (m.(i).(u) +. wuv +. m.(v).(j)) (m.(i).(v) +. wvu +. m.(u).(j)))
        in
        if t < infinity then total := !total +. t
      end
    done
  done;
  !total

let augment_pick_is_literal_eq4 =
  QCheck.Test.make ~name:"greedy pick is the literal Eq. 4 minimum" ~count:300
    (QCheck.make eq4_env_gen ~print:(fun (site, risk, chain, extra) ->
         let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
         Printf.sprintf "sites [%s] risk [%s] chain %b extra [%s]" (ints site)
           (ints risk) chain
           (String.concat "; "
              (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) extra))))
    (fun spec ->
      let env = build_eq4_env spec in
      let n = Env.node_count env in
      let off = Env.arc_off env and tgt = Env.arc_tgt env in
      let miles = Env.arc_miles env and risk = Env.arc_risk env in
      let kappa = Env.mean_kappa env in
      let m =
        Array.init n (fun src ->
            (Rr_graph.Dijkstra.single_source_flat ~n ~off ~tgt
               ~weight:(Fn (fun k -> miles.(k) +. (kappa *. risk.(k))))
               ~src)
              .Rr_graph.Dijkstra.dist)
      in
      let scored =
        List.map (fun c -> (c, literal_eq4_total env m c)) (Augment.candidates env)
      in
      match (Augment.greedy ~k:1 env, scored) with
      | [], [] -> true
      | [ pick ], _ :: _ ->
        let best = List.fold_left (fun acc (_, t) -> Float.min acc t) infinity scored in
        let first, _ = List.find (fun (_, t) -> t = best) scored in
        (pick.Augment.u, pick.Augment.v) = first
        && Int64.bits_of_float pick.Augment.total_after = Int64.bits_of_float best
      | _ -> false)

(* --- Interdomain --- *)

let mini_peering () =
  (* two 2-PoP networks sharing one metro *)
  let mk name cities =
    let pops =
      Array.of_list
        (List.mapi
           (fun id (city, state, lat, lon) ->
             Rr_topology.Pop.make ~id ~city ~state (coord lat lon))
           cities)
    in
    let graph = Rr_graph.Graph.of_edges (Array.length pops) [ (0, 1) ] in
    Rr_topology.Net.make ~name ~tier:Rr_topology.Net.Regional pops graph
  in
  let a = mk "NetA" [ ("Houston", "TX", 29.76, -95.37); ("Dallas", "TX", 32.78, -96.80) ] in
  let b = mk "NetB" [ ("Dallas", "TX", 32.78, -96.80); ("Austin", "TX", 30.27, -97.74) ] in
  { Rr_topology.Peering.nets = [| a; b |]; edges = [ (0, 1) ] }

let test_interdomain_merge () =
  let merged = Interdomain.merge (mini_peering ()) in
  Alcotest.(check int) "four nodes" 4 (Interdomain.node_count merged);
  Alcotest.(check int) "node id offsets" 2 (Interdomain.node_id merged ~net:1 ~pop:0);
  Alcotest.(check int) "owner" 1 (Interdomain.owner merged 3);
  (* peering link between the co-located Dallas PoPs *)
  Alcotest.(check bool) "peering link added" true
    (Rr_graph.Graph.has_edge (Interdomain.graph merged) 1 2);
  Alcotest.(check int) "one peering link" 1 (Interdomain.peering_link_count merged);
  Alcotest.(check (array int)) "regional nodes" [| 0; 1; 2; 3 |]
    (Interdomain.regional_nodes merged)

let test_interdomain_cross_net_route () =
  let merged = Interdomain.merge (mini_peering ()) in
  let env =
    Env.make ~graph:(Interdomain.graph merged)
      ~coords:
        [| coord 29.76 (-95.37); coord 32.78 (-96.8); coord 32.78 (-96.8); coord 30.27 (-97.74) |]
      ~impact:(Array.make 4 0.25)
      ~historical:(Array.make 4 1e-5) ()
  in
  (* Houston (NetA) to Austin (NetB) must cross the Dallas peering *)
  match Router.shortest env ~src:0 ~dst:3 with
  | Some route -> Alcotest.(check (list int)) "through peering" [ 0; 1; 2; 3 ] route.Router.path
  | None -> Alcotest.fail "should route across the peering"

let test_interdomain_with_extra_peering () =
  let peering = mini_peering () in
  let merged = Interdomain.merge { peering with Rr_topology.Peering.edges = [] } in
  Alcotest.(check int) "no peering links" 0 (Interdomain.peering_link_count merged);
  let merged' = Interdomain.with_extra_peering merged ~net_a:0 ~net_b:1 in
  Alcotest.(check int) "peering added" 1 (Interdomain.peering_link_count merged');
  (* original untouched *)
  Alcotest.(check int) "original unchanged" 0 (Interdomain.peering_link_count merged)

(* --- Characteristics --- *)

let test_characteristics_table () =
  let zoo = Rr_topology.Zoo.shared () in
  let riskmap = Rr_disaster.Riskmap.build (Rr_disaster.Catalog.generate ~scale:0.01 ()) in
  let results =
    List.map
      (fun net ->
        ( net,
          {
            Ratios.risk_reduction = 0.01 *. float_of_int (Rr_topology.Net.pop_count net);
            distance_increase = 0.1;
            pairs = 10;
          } ))
      zoo.Rr_topology.Zoo.regionals
  in
  let table =
    Characteristics.table ~results ~peering:zoo.Rr_topology.Zoo.peering ~riskmap
  in
  Alcotest.(check int) "six rows" 6 (List.length table);
  List.iter
    (fun (row : Characteristics.row) ->
      Alcotest.(check bool) "r2 in bounds" true
        (row.Characteristics.r2_risk >= 0.0 && row.Characteristics.r2_risk <= 1.0 +. 1e-9))
    table;
  (* the fabricated ratios are a perfect linear function of #PoPs *)
  let pops_row =
    List.find
      (fun (r : Characteristics.row) ->
        r.Characteristics.characteristic = Characteristics.Number_of_pops)
      table
  in
  Alcotest.(check bool) "perfect fit detected" true (pops_row.Characteristics.r2_risk > 0.999)

let test_characteristics_values () =
  let zoo = Rr_topology.Zoo.shared () in
  let net = Option.get (Rr_topology.Zoo.find zoo "Globalcenter") in
  let riskmap = Rr_disaster.Riskmap.build (Rr_disaster.Catalog.generate ~scale:0.01 ()) in
  let v c = Characteristics.value c ~net ~peering:zoo.Rr_topology.Zoo.peering ~riskmap in
  Alcotest.(check (float 1e-9)) "#pops" 8.0 (v Characteristics.Number_of_pops);
  Alcotest.(check bool) "footprint > 0" true (v Characteristics.Geographic_footprint > 0.0);
  Alcotest.(check bool) "peers >= 1" true (v Characteristics.Number_of_peers >= 1.0)

let test_characteristics_requires_two () =
  let zoo = Rr_topology.Zoo.shared () in
  let riskmap = Rr_disaster.Riskmap.build (Rr_disaster.Catalog.generate ~scale:0.01 ()) in
  Alcotest.check_raises "one network"
    (Invalid_argument "Characteristics.table: need at least two networks") (fun () ->
      ignore
        (Characteristics.table
           ~results:
             [ (List.hd zoo.Rr_topology.Zoo.regionals,
                { Ratios.risk_reduction = 0.1; distance_increase = 0.1; pairs = 1 }) ]
           ~peering:zoo.Rr_topology.Zoo.peering ~riskmap))

let () =
  Alcotest.run "riskroute-core"
    [
      ( "params",
        [
          Alcotest.test_case "defaults" `Quick test_params_default;
          Alcotest.test_case "validate" `Quick test_params_validate;
          Alcotest.test_case "with_*" `Quick test_params_with;
          Alcotest.test_case "eager validation" `Quick test_params_eager_validation;
          Alcotest.test_case "make" `Quick test_params_make;
        ] );
      ( "env",
        [
          Alcotest.test_case "length validation" `Quick test_env_length_validation;
          Alcotest.test_case "kappa" `Quick test_env_kappa;
          Alcotest.test_case "mean kappa shared by derivatives" `Quick
            test_env_mean_kappa_shared;
          Alcotest.test_case "node risk" `Quick test_env_node_risk;
          Alcotest.test_case "link miles cache" `Quick test_env_link_miles_cached;
          Alcotest.test_case "with_forecast" `Quick test_env_with_forecast;
          Alcotest.test_case "with_advisory" `Quick test_env_with_advisory;
          Alcotest.test_case "with_graph" `Quick test_env_with_graph;
        ] );
      ( "metric",
        [
          Alcotest.test_case "Eq. 1 by hand" `Quick test_metric_eq1_by_hand;
          Alcotest.test_case "bit miles" `Quick test_metric_bit_miles;
          Alcotest.test_case "degenerate paths" `Quick test_metric_degenerate_paths;
          Alcotest.test_case "source risk excluded" `Quick test_metric_source_risk_not_counted;
          Alcotest.test_case "path risk" `Quick test_metric_path_risk;
        ] );
      ( "router",
        [
          Alcotest.test_case "avoids hot node" `Quick test_router_avoids_hot_node;
          Alcotest.test_case "domination" `Quick test_router_riskroute_dominates;
          Alcotest.test_case "no risk = shortest" `Quick test_router_no_risk_equals_shortest;
          Alcotest.test_case "disconnected" `Quick test_router_disconnected;
          Alcotest.test_case "route_of_path" `Quick test_route_of_path;
          QCheck_alcotest.to_alcotest riskroute_never_riskier;
          QCheck_alcotest.to_alcotest riskroute_cost_is_metric;
        ] );
      ( "ratios",
        [
          Alcotest.test_case "zero-risk convention" `Quick test_ratios_no_risk_convention;
          Alcotest.test_case "diamond" `Quick test_ratios_diamond;
          Alcotest.test_case "deterministic sampling" `Quick test_ratios_deterministic_sampling;
          Alcotest.test_case "between sets" `Quick test_ratios_between;
        ] );
      ( "augment",
        [
          Alcotest.test_case "candidate rule" `Quick test_augment_candidates_rule;
          Alcotest.test_case "greedy improves" `Quick test_augment_greedy_improves;
          Alcotest.test_case "greedy monotone" `Quick test_augment_greedy_monotone;
          QCheck_alcotest.to_alcotest augment_insertion_matches_bruteforce;
          QCheck_alcotest.to_alcotest augment_pick_is_literal_eq4;
        ] );
      ( "interdomain",
        [
          Alcotest.test_case "merge" `Quick test_interdomain_merge;
          Alcotest.test_case "cross-net route" `Quick test_interdomain_cross_net_route;
          Alcotest.test_case "extra peering" `Quick test_interdomain_with_extra_peering;
        ] );
      ( "characteristics",
        [
          Alcotest.test_case "table" `Quick test_characteristics_table;
          Alcotest.test_case "values" `Quick test_characteristics_values;
          Alcotest.test_case "needs two networks" `Quick test_characteristics_requires_two;
        ] );
    ]
