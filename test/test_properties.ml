(* Cross-cutting property tests: invariants that should hold for any
   input, checked with qcheck generators over each substrate. *)

open Riskroute

let coord lat lon = Rr_geo.Coord.make ~lat ~lon

let arb_coord =
  QCheck.make
    QCheck.Gen.(
      map2
        (fun lat lon -> coord lat lon)
        (float_range 25.0 49.0) (float_range (-124.0) (-67.0)))
    ~print:Rr_geo.Coord.to_string

(* --- geo --- *)

let grid_cell_in_bounds =
  QCheck.Test.make ~name:"grid cell indices within bounds" ~count:300 arb_coord
    (fun c ->
      let grid = Rr_geo.Grid.create Rr_geo.Bbox.conus ~rows:37 ~cols:91 in
      match Rr_geo.Grid.cell_of_coord grid c with
      | None -> not (Rr_geo.Bbox.contains Rr_geo.Bbox.conus c)
      | Some (row, col) -> row >= 0 && row < 37 && col >= 0 && col < 91)

let grid_cell_center_round_trip =
  QCheck.Test.make ~name:"cell centre maps back to its own cell" ~count:300
    (QCheck.pair QCheck.(int_bound 36) QCheck.(int_bound 90))
    (fun (row, col) ->
      let grid = Rr_geo.Grid.create Rr_geo.Bbox.conus ~rows:37 ~cols:91 in
      Rr_geo.Grid.cell_of_coord grid (Rr_geo.Grid.coord_of_cell grid row col)
      = Some (row, col))

let bbox_expand_contains =
  QCheck.Test.make ~name:"expanded bbox contains the original's points" ~count:200
    (QCheck.pair arb_coord (QCheck.float_range 0.0 10.0))
    (fun (c, degrees) ->
      let box =
        Rr_geo.Bbox.of_coords [ c; coord (Rr_geo.Coord.lat c) (-96.0) ]
      in
      Rr_geo.Bbox.contains (Rr_geo.Bbox.expand box ~degrees) c)

let clamp_idempotent =
  QCheck.Test.make ~name:"bbox clamp is idempotent" ~count:300
    (QCheck.pair (QCheck.float_range (-89.0) 89.0) (QCheck.float_range (-179.0) 179.0))
    (fun (lat, lon) ->
      let p = Rr_geo.Coord.make ~lat ~lon in
      let once = Rr_geo.Bbox.clamp Rr_geo.Bbox.conus p in
      Rr_geo.Coord.equal once (Rr_geo.Bbox.clamp Rr_geo.Bbox.conus once)
      && Rr_geo.Bbox.contains Rr_geo.Bbox.conus once)

(* --- graph --- *)

let arb_graph =
  QCheck.make
    QCheck.Gen.(
      int_range 2 10 >>= fun n ->
      list_size (int_range 0 25) (pair (int_bound (n - 1)) (int_bound (n - 1)))
      >>= fun edges -> return (n, List.filter (fun (u, v) -> u <> v) edges))
    ~print:(fun (n, edges) -> Printf.sprintf "n=%d m=%d" n (List.length edges))

let early_exit_matches_full =
  QCheck.Test.make ~name:"single_pair equals single_source distance" ~count:200
    arb_graph
    (fun (n, edges) ->
      let g = Rr_graph.Graph.of_edges n edges in
      let off, tgt, weight =
        Arc_weight.lift g (fun u v -> 1.0 +. float_of_int ((u + (2 * v)) mod 7))
      in
      let tree =
        Rr_graph.Dijkstra.single_source_flat ~n ~off ~tgt ~weight:(Fn weight) ~src:0
      in
      match
        Rr_graph.Dijkstra.single_pair_flat ~n ~off ~tgt ~weight ~src:0 ~dst:(n - 1)
      with
      | None -> tree.Rr_graph.Dijkstra.dist.(n - 1) = infinity
      | Some (cost, _) -> Float.abs (cost -. tree.Rr_graph.Dijkstra.dist.(n - 1)) < 1e-9)

let remove_edge_weakens_connectivity =
  QCheck.Test.make ~name:"removing an edge never reduces component count" ~count:200
    arb_graph
    (fun (n, edges) ->
      QCheck.assume (edges <> []);
      let g = Rr_graph.Graph.of_edges n edges in
      let before = Rr_graph.Component.component_count g in
      let u, v = List.hd edges in
      Rr_graph.Graph.remove_edge g u v;
      Rr_graph.Component.component_count g >= before)

let yen_paths_sorted =
  QCheck.Test.make ~name:"yen returns sorted, loopless, distinct paths" ~count:100
    arb_graph
    (fun (n, edges) ->
      let g = Rr_graph.Graph.of_edges n edges in
      let off, tgt, weight =
        Arc_weight.lift g (fun u v -> 1.0 +. float_of_int ((u * v) mod 5))
      in
      let paths = Rr_graph.Kpaths.yen ~n ~off ~tgt ~weight ~src:0 ~dst:(n - 1) ~k:5 in
      let costs = List.map fst paths in
      let node_paths = List.map snd paths in
      List.sort Float.compare costs = costs
      && List.length (List.sort_uniq compare node_paths) = List.length node_paths
      && List.for_all
           (fun p -> List.length (List.sort_uniq compare p) = List.length p)
           node_paths)

(* --- core metric --- *)

let arb_env =
  QCheck.make
    QCheck.Gen.(
      int_range 3 8 >>= fun n ->
      list_size (int_range 0 12) (pair (int_bound (n - 1)) (int_bound (n - 1)))
      >>= fun extra ->
      array_size (return n) (float_range 0.0 2e-4) >>= fun historical ->
      return (n, List.filter (fun (u, v) -> u <> v) extra, historical))
    ~print:(fun (n, _, _) -> Printf.sprintf "env n=%d" n)

let build_env (n, extra, historical) =
  let graph = Rr_graph.Graph.create n in
  for i = 0 to n - 2 do
    Rr_graph.Graph.add_edge graph i (i + 1)
  done;
  List.iter (fun (u, v) -> Rr_graph.Graph.add_edge graph u v) extra;
  Env.make ~graph
    ~coords:
      (Array.init n (fun i ->
           coord (27.0 +. (2.2 *. float_of_int i)) (-119.0 +. (5.5 *. float_of_int i))))
    ~impact:(Array.make n (1.0 /. float_of_int n))
    ~historical ()

let metric_hop_additivity =
  QCheck.Test.make ~name:"bit-risk of a path equals the sum of its hop weights"
    ~count:200 arb_env
    (fun spec ->
      let env = build_env spec in
      let n = Env.node_count env in
      let path = List.init n Fun.id in
      let kappa = Env.kappa env 0 (n - 1) in
      let by_hops =
        let rec loop acc = function
          | a :: (b :: _ as rest) -> loop (acc +. Env.edge_weight env ~kappa a b) rest
          | _ -> acc
        in
        loop 0.0 path
      in
      Float.abs (by_hops -. Metric.bit_risk_miles env path) < 1e-9)

let ratios_bounded =
  QCheck.Test.make ~name:"risk reduction ratio bounded by 1" ~count:100 arb_env
    (fun spec ->
      let env = build_env spec in
      let r = Ratios.intradomain env in
      r.Ratios.risk_reduction <= 1.0 +. 1e-9)

let riskroute_distance_dominates =
  QCheck.Test.make ~name:"riskroute path is never shorter than shortest path"
    ~count:200 arb_env
    (fun spec ->
      let env = build_env spec in
      let n = Env.node_count env in
      match (Router.riskroute env ~src:0 ~dst:(n - 1), Router.shortest env ~src:0 ~dst:(n - 1)) with
      | Some rr, Some sp -> rr.Router.bit_miles >= sp.Router.bit_miles -. 1e-9
      | _ -> false)

(* exhaustive simple-path enumeration for small graphs *)
let all_simple_paths graph ~src ~dst =
  let acc = ref [] in
  let rec dfs path visited v =
    if v = dst then acc := List.rev path :: !acc
    else
      Rr_graph.Graph.iter_neighbors graph v (fun w ->
          if not (List.mem w visited) then dfs (w :: path) (w :: visited) w)
  in
  dfs [ src ] [ src ] src;
  !acc

let pareto_frontier_truly_optimal =
  QCheck.Test.make ~name:"no simple path dominates a frontier point" ~count:60
    arb_env
    (fun spec ->
      let env = build_env spec in
      let n = Env.node_count env in
      let kappa = Env.kappa env 0 (n - 1) in
      let frontier = Pareto.frontier ~k:16 env ~src:0 ~dst:(n - 1) in
      let everything = all_simple_paths (Env.graph env) ~src:0 ~dst:(n - 1) in
      QCheck.assume (List.length everything <= 200);
      List.for_all
        (fun (p : Pareto.point) ->
          not
            (List.exists
               (fun path ->
                 let miles = Metric.bit_miles env path in
                 let risk = kappa *. Metric.path_risk env path in
                 miles <= p.Pareto.bit_miles +. 1e-9
                 && risk <= p.Pareto.risk +. 1e-9
                 && (miles < p.Pareto.bit_miles -. 1e-9 || risk < p.Pareto.risk -. 1e-9))
               everything))
        frontier)

let backup_repairs_valid =
  QCheck.Test.make ~name:"backup repairs avoid their failure" ~count:100 arb_env
    (fun spec ->
      let env = build_env spec in
      let n = Env.node_count env in
      match Backup.plan env ~src:0 ~dst:(n - 1) with
      | None -> false
      | Some plan ->
        List.for_all
          (fun (r : Backup.repair) ->
            match r.Backup.route with
            | None -> true
            | Some route -> (
              (match r.Backup.failed_node with
              | Some v -> not (List.mem v route.Router.path)
              | None -> true)
              &&
              match r.Backup.failed_link with
              | Some (u, v) ->
                let rec uses = function
                  | a :: (b :: _ as rest) ->
                    ((a = u && b = v) || (a = v && b = u)) || uses rest
                  | _ -> false
                in
                not (uses route.Router.path)
              | None -> true))
          plan.Backup.repairs)

(* Removing nodes and links through infinite arc weights must route
   exactly like the graph with them deleted: Backup's masked search
   against Router on the pruned graph (same path, bitwise-equal cost).
   A banned link that is not in the graph is ignored. The reactive
   (connectivity) side of node removal is [strike_labels_match_masked_search]
   below. *)
let masks_match_pruned_graph =
  QCheck.Test.make ~name:"masked searches equal searches on the pruned graph"
    ~count:300
    (QCheck.pair arb_env QCheck.small_nat)
    (fun (spec, seed) ->
      let env = build_env spec in
      let n = Env.node_count env in
      let graph = Env.graph env in
      let rng = Rr_util.Prng.create (Int64.of_int (seed + 1)) in
      let pairs = Rr_util.Listx.pairs (List.init n Fun.id) in
      let links, non_links =
        List.partition (fun (u, v) -> Rr_graph.Graph.has_edge graph u v) pairs
      in
      let banned_nodes =
        List.filter (fun _ -> Rr_util.Prng.int rng 4 = 0) (List.init n Fun.id)
      in
      (* Either orientation bans the link. *)
      let banned_links =
        List.filter_map
          (fun (u, v) ->
            if Rr_util.Prng.int rng 4 <> 0 then None
            else if Rr_util.Prng.bool rng then Some (u, v)
            else Some (v, u))
          links
      in
      let absent =
        match non_links with
        | [] -> (0, 0)
        | l -> List.nth l (Rr_util.Prng.int rng (List.length l))
      in
      let pruned = Rr_graph.Graph.copy graph in
      List.iter
        (fun v ->
          List.iter (Rr_graph.Graph.remove_edge pruned v)
            (Rr_graph.Graph.neighbors graph v))
        banned_nodes;
      List.iter (fun (u, v) -> Rr_graph.Graph.remove_edge pruned u v) banned_links;
      let pruned_env = Env.with_graph env pruned in
      let same_route a b =
        match (a, b) with
        | None, None -> true
        | Some (a : Router.route), Some (b : Router.route) ->
          a.Router.path = b.Router.path
          && Int64.equal
               (Int64.bits_of_float a.Router.bit_risk_miles)
               (Int64.bits_of_float b.Router.bit_risk_miles)
        | _ -> false
      in
      List.for_all
        (fun (src, dst) ->
          same_route
            (Backup.route_avoiding env ~src ~dst
               ~banned_links:(absent :: banned_links) ~banned_nodes)
            (Router.riskroute pruned_env ~src ~dst))
        (pairs @ List.map (fun (u, v) -> (v, u)) pairs))

(* The strike labelling behind Outagesim's and Availability's reactive
   posture, on seeded removed sets: [-1] exactly on removed nodes, dense
   labels from 0 numbered in smallest-node order, and two nodes share a
   label [>= 0] exactly when the per-pair search those analyses ran
   before (every arc into a removed node weighs infinity, a removed
   source finds nothing) reaches one from the other. The labels also
   match the components of the graph with the removed nodes' edges
   deleted. *)
let strike_labels_match_masked_search =
  QCheck.Test.make ~name:"strike labels equal masked searches" ~count:300
    (QCheck.pair arb_env QCheck.small_nat)
    (fun (spec, seed) ->
      let env = build_env spec in
      let n = Env.node_count env in
      let graph = Env.graph env in
      let rng = Rr_util.Prng.create (Int64.of_int (seed + 1)) in
      let removed = Array.init n (fun _ -> Rr_util.Prng.int rng 4 = 0) in
      let off = Env.arc_off env and tgt = Env.arc_tgt env in
      let miles = Env.arc_miles env in
      let label = Rr_graph.Component.labels ~off ~tgt ~removed in
      let masked_path src dst =
        let weight k = if removed.(tgt.(k)) then infinity else miles.(k) in
        (not removed.(src))
        && Rr_graph.Dijkstra.single_pair_flat ~n ~off ~tgt ~weight ~src ~dst <> None
      in
      let pruned = Rr_graph.Graph.copy graph in
      Array.iteri
        (fun v r ->
          if r then
            List.iter (Rr_graph.Graph.remove_edge pruned v)
              (Rr_graph.Graph.neighbors graph v))
        removed;
      let pruned_label = Rr_graph.Component.components pruned in
      let dense_in_node_order =
        let next = ref 0 in
        Array.for_all
          (fun l ->
            if l < 0 || l < !next then true
            else if l = !next then (incr next; true)
            else false)
          label
      in
      let nodes = List.init n Fun.id in
      label = Outagesim.strike_labels env ~failed:removed
      && Array.for_all2 (fun l r -> (l = -1) = r) label removed
      && dense_in_node_order
      && List.for_all
           (fun src ->
             List.for_all
               (fun dst ->
                 let same = label.(src) = label.(dst) && label.(src) >= 0 in
                 same = masked_path src dst
                 && (removed.(src) || removed.(dst)
                    || same = (pruned_label.(src) = pruned_label.(dst))))
               nodes)
           nodes)

let ospf_zero_risk_high_fidelity =
  QCheck.Test.make ~name:"zero-risk OSPF export routes like shortest path"
    ~count:50 arb_env
    (fun spec ->
      let n, extra, _ = spec in
      let env = build_env (n, extra, Array.make n 0.0) in
      let f = Ospf.fidelity ~pair_cap:40 env in
      (* only quantisation noise on near-tie paths can break matches *)
      f.Ospf.exact_match >= 0.85)

(* --- sampling --- *)

let pair_indices_complete_when_uncapped =
  QCheck.Test.make ~name:"pair_indices covers all ordered pairs when uncapped"
    ~count:100
    QCheck.(int_range 2 12)
    (fun n ->
      let rng = Rr_util.Prng.create 9L in
      let pairs = Rr_util.Sampling.pair_indices rng ~n ~cap:(n * n) in
      Array.length pairs = n * (n - 1)
      &&
      let seen = Hashtbl.create 64 in
      Array.iter (fun p -> Hashtbl.replace seen p ()) pairs;
      Hashtbl.length seen = n * (n - 1))

(* --- forecast calendar --- *)

let timestamp_format =
  QCheck.Test.make ~name:"advisory timestamps are well-formed" ~count:60
    QCheck.(int_bound 59)
    (fun tick ->
      let s = Rr_forecast.Track.timestamp Rr_forecast.Track.sandy ~tick in
      (* e.g. "1100 AM EDT MON OCT 22 2012" *)
      match String.split_on_char ' ' s with
      | [ hour; ampm; tz; dow; mon; day; year ] ->
        String.length hour >= 3
        && (ampm = "AM" || ampm = "PM")
        && tz = "EDT"
        && List.mem dow [ "SUN"; "MON"; "TUE"; "WED"; "THU"; "FRI"; "SAT" ]
        && List.mem mon [ "OCT"; "NOV" ]
        && int_of_string day >= 1
        && int_of_string day <= 31
        && year = "2012"
      | _ -> false)

let union_scope_monotone =
  QCheck.Test.make ~name:"union scope grows with more advisories" ~count:100
    arb_coord
    (fun point ->
      let advisories = Rr_forecast.Track.advisories Rr_forecast.Track.irene in
      let prefix = Rr_util.Listx.take 10 advisories in
      Rr_forecast.Riskfield.union_scope advisories point
      >= Rr_forecast.Riskfield.union_scope prefix point)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [
      ( "geo",
        [
          q grid_cell_in_bounds; q grid_cell_center_round_trip;
          q bbox_expand_contains; q clamp_idempotent;
        ] );
      ( "graph",
        [ q early_exit_matches_full; q remove_edge_weakens_connectivity; q yen_paths_sorted ] );
      ( "core",
        [
          q metric_hop_additivity; q ratios_bounded; q riskroute_distance_dominates;
          q pareto_frontier_truly_optimal; q backup_repairs_valid;
          q masks_match_pruned_graph;
          q strike_labels_match_masked_search; q ospf_zero_risk_high_fidelity;
        ] );
      ( "sampling", [ q pair_indices_complete_when_uncapped ] );
      ( "forecast", [ q timestamp_format; q union_scope_monotone ] );
    ]
