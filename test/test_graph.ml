open Rr_graph

(* --- Graph --- *)

let test_graph_basics () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  Alcotest.(check int) "nodes" 4 (Graph.node_count g);
  Alcotest.(check int) "edges" 2 (Graph.edge_count g);
  Alcotest.(check bool) "has 0-1" true (Graph.has_edge g 0 1);
  Alcotest.(check bool) "has 1-0 (undirected)" true (Graph.has_edge g 1 0);
  Alcotest.(check bool) "no 0-2" false (Graph.has_edge g 0 2);
  Alcotest.(check int) "degree 1" 2 (Graph.degree g 1)

let test_graph_idempotent_add () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 0;
  Alcotest.(check int) "one edge" 1 (Graph.edge_count g)

let test_graph_self_loop () =
  let g = Graph.create 3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> Graph.add_edge g 1 1)

let test_graph_remove () =
  let g = Graph.of_edges 3 [ (0, 1); (1, 2) ] in
  Graph.remove_edge g 0 1;
  Alcotest.(check bool) "removed" false (Graph.has_edge g 0 1);
  Alcotest.(check int) "one left" 1 (Graph.edge_count g);
  Graph.remove_edge g 0 1 (* no-op *);
  Alcotest.(check int) "still one" 1 (Graph.edge_count g)

let test_graph_edges_listing () =
  let g = Graph.of_edges 4 [ (2, 1); (0, 3); (0, 1) ] in
  Alcotest.(check (list (pair int int))) "sorted u < v" [ (0, 1); (0, 3); (1, 2) ]
    (List.sort compare (Graph.edges g))

let test_graph_copy_independent () =
  let g = Graph.of_edges 3 [ (0, 1) ] in
  let g' = Graph.copy g in
  Graph.add_edge g' 1 2;
  Alcotest.(check int) "copy gains edge" 2 (Graph.edge_count g');
  Alcotest.(check int) "original untouched" 1 (Graph.edge_count g);
  Alcotest.(check bool) "original lacks 1-2" false (Graph.has_edge g 1 2)

let test_graph_out_of_range () =
  let g = Graph.create 2 in
  Alcotest.check_raises "bad node" (Invalid_argument "Graph: node out of range")
    (fun () -> ignore (Graph.neighbors g 5))

let test_csr_mates_involution () =
  let g =
    Graph.of_edges 6 [ (0, 1); (0, 2); (1, 2); (2, 3); (3, 4); (2, 4); (4, 5) ]
  in
  let off, tgt = Graph.to_csr g in
  let mate = Graph.csr_mates ~off ~tgt in
  Alcotest.(check int) "one mate per arc" (Array.length tgt)
    (Array.length mate);
  for u = 0 to Graph.node_count g - 1 do
    for k = off.(u) to off.(u + 1) - 1 do
      let m = mate.(k) in
      Alcotest.(check int) "involution" k mate.(m);
      (* The mate of u -> v is an arc out of v back to u. *)
      Alcotest.(check int) "mate returns" u tgt.(m);
      Alcotest.(check bool) "mate leaves v" true
        (off.(tgt.(k)) <= m && m < off.(tgt.(k) + 1))
    done
  done

(* --- Dijkstra --- *)

let single_source g ~weight ~src =
  let off, tgt, weight = Arc_weight.lift g weight in
  Dijkstra.single_source_flat ~n:(Graph.node_count g) ~off ~tgt ~weight:(Dijkstra.Fn weight) ~src

let single_pair g ~weight ~src ~dst =
  let off, tgt, weight = Arc_weight.lift g weight in
  Dijkstra.single_pair_flat ~n:(Graph.node_count g) ~off ~tgt ~weight ~src ~dst

let line_graph weights =
  (* 0 -1- 2 -... chain with given weights *)
  let n = Array.length weights + 1 in
  let g = Graph.create n in
  for i = 0 to n - 2 do
    Graph.add_edge g i (i + 1)
  done;
  let weight u v =
    let lo = min u v in
    weights.(lo)
  in
  (g, weight)

let test_dijkstra_chain () =
  let g, weight = line_graph [| 1.0; 2.0; 3.0 |] in
  let tree = single_source g ~weight ~src:0 in
  Alcotest.(check (float 1e-9)) "dist to 3" 6.0 tree.Dijkstra.dist.(3);
  Alcotest.(check (option (list int))) "path" (Some [ 0; 1; 2; 3 ])
    (Dijkstra.path_of_tree tree ~src:0 ~dst:3)

let test_dijkstra_picks_cheaper () =
  (* square: 0-1-3 costs 2, 0-2-3 costs 10 *)
  let g = Graph.of_edges 4 [ (0, 1); (1, 3); (0, 2); (2, 3) ] in
  let weight u v =
    match (min u v, max u v) with
    | 0, 1 | 1, 3 -> 1.0
    | _ -> 5.0
  in
  match single_pair g ~weight ~src:0 ~dst:3 with
  | Some (cost, path) ->
    Alcotest.(check (float 1e-9)) "cost" 2.0 cost;
    Alcotest.(check (list int)) "path" [ 0; 1; 3 ] path
  | None -> Alcotest.fail "connected"

let test_dijkstra_disconnected () =
  let g = Graph.of_edges 4 [ (0, 1) ] in
  let weight _ _ = 1.0 in
  Alcotest.(check bool) "no path" true
    (single_pair g ~weight ~src:0 ~dst:3 = None);
  let tree = single_source g ~weight ~src:0 in
  Alcotest.(check bool) "inf dist" true (tree.Dijkstra.dist.(3) = infinity);
  Alcotest.(check (option (list int))) "no tree path" None
    (Dijkstra.path_of_tree tree ~src:0 ~dst:3)

let test_dijkstra_src_eq_dst () =
  let g = Graph.of_edges 2 [ (0, 1) ] in
  match single_pair g ~weight:(fun _ _ -> 1.0) ~src:0 ~dst:0 with
  | Some (cost, path) ->
    Alcotest.(check (float 1e-9)) "zero" 0.0 cost;
    Alcotest.(check (list int)) "trivial path" [ 0 ] path
  | None -> Alcotest.fail "self distance"

let test_dijkstra_negative_weight () =
  let g = Graph.of_edges 2 [ (0, 1) ] in
  Alcotest.check_raises "rejects negative"
    (Invalid_argument "Dijkstra: negative edge weight") (fun () ->
      ignore (single_pair g ~weight:(fun _ _ -> -1.0) ~src:0 ~dst:1))

let test_dijkstra_directional_weight () =
  (* asymmetric weight: going 0 -> 1 costs 1, 1 -> 0 costs 10 *)
  let g = Graph.of_edges 2 [ (0, 1) ] in
  let weight u v = if u < v then 1.0 else 10.0 in
  let c01 = Option.get (single_pair g ~weight ~src:0 ~dst:1) in
  let c10 = Option.get (single_pair g ~weight ~src:1 ~dst:0) in
  Alcotest.(check (float 1e-9)) "forward" 1.0 (fst c01);
  Alcotest.(check (float 1e-9)) "backward" 10.0 (fst c10)

let test_dijkstra_infinity_removes_arc () =
  (* square 0-1-3 / 0-2-3: removing 0 -> 1 forces the dearer side, and
     removing every arc into 3 disconnects it *)
  let g = Graph.of_edges 4 [ (0, 1); (1, 3); (0, 2); (2, 3) ] in
  let cheap u v = match (min u v, max u v) with 0, 1 | 1, 3 -> 1.0 | _ -> 5.0 in
  let without_01 u v = if u = 0 && v = 1 then infinity else cheap u v in
  Alcotest.(check (option (pair (float 1e-9) (list int)))) "detour"
    (Some (10.0, [ 0; 2; 3 ]))
    (single_pair g ~weight:without_01 ~src:0 ~dst:3);
  let into_3 u v = if v = 3 then infinity else cheap u v in
  Alcotest.(check bool) "cut off" true (single_pair g ~weight:into_3 ~src:0 ~dst:3 = None);
  let tree = single_source g ~weight:into_3 ~src:0 in
  Alcotest.(check bool) "unreached" true (tree.Dijkstra.dist.(3) = infinity)

let test_path_cost () =
  let g = Graph.of_edges 3 [ (0, 1); (1, 2) ] in
  let off, tgt, weight = Arc_weight.lift g (fun u v -> float_of_int (u + v)) in
  Alcotest.(check (float 1e-9)) "sum" 4.0
    (Dijkstra.path_cost ~off ~tgt ~weight:(Dijkstra.Fn weight) [ 0; 1; 2 ]);
  Alcotest.(check (float 1e-9)) "singleton" 0.0
    (Dijkstra.path_cost ~off ~tgt ~weight:(Dijkstra.Fn weight) [ 7 ]);
  Alcotest.(check (option int)) "no arc 0 -> 2" None (Dijkstra.find_arc ~off ~tgt 0 2);
  Alcotest.check_raises "missing hop"
    (Invalid_argument "Dijkstra.path_cost: path edge missing from CSR")
    (fun () -> ignore (Dijkstra.path_cost ~off ~tgt ~weight:(Dijkstra.Fn weight) [ 0; 2 ]))

(* brute-force Bellman-Ford-ish reference for random graphs *)
let brute_force_dist g ~weight ~src =
  let n = Graph.node_count g in
  let dist = Array.make n infinity in
  dist.(src) <- 0.0;
  for _ = 1 to n do
    List.iter
      (fun (u, v) ->
        if dist.(u) +. weight u v < dist.(v) then dist.(v) <- dist.(u) +. weight u v;
        if dist.(v) +. weight v u < dist.(u) then dist.(u) <- dist.(v) +. weight v u)
      (Graph.edges g)
  done;
  dist

let random_graph_gen =
  QCheck.Gen.(
    int_range 2 12 >>= fun n ->
    list_size (int_range 0 30) (pair (int_bound (n - 1)) (int_bound (n - 1)))
    >>= fun edges ->
    let edges = List.filter (fun (u, v) -> u <> v) edges in
    return (n, edges))

let arb_random_graph =
  QCheck.make random_graph_gen ~print:(fun (n, edges) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat ";" (List.map (fun (u, v) -> Printf.sprintf "(%d,%d)" u v) edges)))

let dijkstra_matches_brute_force =
  QCheck.Test.make ~name:"dijkstra equals brute force on random graphs" ~count:200
    arb_random_graph
    (fun (n, edges) ->
      let g = Graph.of_edges n edges in
      let weight u v = float_of_int (((u * 7) + (v * 13)) mod 19) +. 1.0 in
      let tree = single_source g ~weight ~src:0 in
      let reference = brute_force_dist g ~weight ~src:0 in
      Array.for_all2
        (fun a b -> (a = infinity && b = infinity) || Float.abs (a -. b) < 1e-6)
        tree.Dijkstra.dist reference)

let single_pair_consistent =
  QCheck.Test.make ~name:"single_pair cost equals path_cost of its path" ~count:200
    arb_random_graph
    (fun (n, edges) ->
      let g = Graph.of_edges n edges in
      let weight u v = float_of_int (((u * 3) + (v * 5)) mod 11) +. 0.5 in
      match single_pair g ~weight ~src:0 ~dst:(n - 1) with
      | None -> true
      | Some (cost, path) ->
        let off, tgt, weight = Arc_weight.lift g weight in
        Int64.equal (Int64.bits_of_float cost)
          (Int64.bits_of_float (Dijkstra.path_cost ~off ~tgt ~weight:(Dijkstra.Fn weight) path))
        && List.hd path = 0
        && List.nth path (List.length path - 1) = n - 1)

(* --- Component --- *)

let test_components () =
  let g = Graph.of_edges 6 [ (0, 1); (1, 2); (3, 4) ] in
  Alcotest.(check int) "three components" 3 (Component.component_count g);
  Alcotest.(check bool) "not connected" false (Component.is_connected g);
  Alcotest.(check (list int)) "largest" [ 0; 1; 2 ] (Component.largest_component g)

let test_components_connected () =
  let g = Graph.of_edges 3 [ (0, 1); (1, 2) ] in
  Alcotest.(check bool) "connected" true (Component.is_connected g);
  let labels = Component.components g in
  Alcotest.(check (array int)) "all zero" [| 0; 0; 0 |] labels

let test_labels_removed () =
  (* A path 0-1-2-3 and an edge 4-5: removing 1 splits the path, and
     the surviving components are numbered by their smallest node. *)
  let g = Graph.of_edges 6 [ (0, 1); (1, 2); (2, 3); (4, 5) ] in
  let off, tgt = Graph.to_csr g in
  let removed = [| false; true; false; false; false; false |] in
  Alcotest.(check (array int)) "labels" [| 0; -1; 1; 1; 2; 2 |]
    (Component.labels ~off ~tgt ~removed);
  Alcotest.(check (array int)) "all removed" [| -1; -1; -1; -1; -1; -1 |]
    (Component.labels ~off ~tgt ~removed:(Array.make 6 true));
  Alcotest.check_raises "mask length"
    (Invalid_argument
       "Component.labels: removed mask length differs from node count")
    (fun () -> ignore (Component.labels ~off ~tgt ~removed:(Array.make 5 false)))

let test_components_empty () =
  Alcotest.(check bool) "empty graph connected" true
    (Component.is_connected (Graph.create 0))

(* --- Spanner --- *)

let ring_points n =
  Array.init n (fun i ->
      let theta = 2.0 *. Float.pi *. float_of_int i /. float_of_int n in
      (cos theta, sin theta))

let euclid points u v =
  let xu, yu = points.(u) and xv, yv = points.(v) in
  sqrt (((xu -. xv) ** 2.0) +. ((yu -. yv) ** 2.0))

let test_mst_connected () =
  let points = ring_points 12 in
  let g = Spanner.mst ~n:12 ~dist:(euclid points) in
  Alcotest.(check bool) "connected" true (Component.is_connected g);
  Alcotest.(check int) "n-1 edges" 11 (Graph.edge_count g)

let test_mst_single_node () =
  let g = Spanner.mst ~n:1 ~dist:(fun _ _ -> 0.0) in
  Alcotest.(check int) "no edges" 0 (Graph.edge_count g)

let test_gabriel_ring () =
  let points = ring_points 8 in
  let g = Spanner.gabriel ~n:8 ~dist:(euclid points) in
  (* ring neighbours are Gabriel edges; antipodal pairs are not *)
  Alcotest.(check bool) "adjacent linked" true (Graph.has_edge g 0 1);
  Alcotest.(check bool) "antipodal blocked" false (Graph.has_edge g 0 4)

let test_knn_degree () =
  let points = ring_points 10 in
  let g = Spanner.knn ~n:10 ~dist:(euclid points) ~k:2 in
  for v = 0 to 9 do
    Alcotest.(check bool) "degree >= k" true (Graph.degree g v >= 2)
  done

let test_union () =
  let a = Graph.of_edges 3 [ (0, 1) ] in
  let b = Graph.of_edges 3 [ (1, 2) ] in
  let u = Spanner.union a b in
  Alcotest.(check int) "edges merged" 2 (Graph.edge_count u);
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Spanner.union: node-count mismatch") (fun () ->
      ignore (Spanner.union a (Graph.create 5)))

let mst_always_spanning =
  QCheck.Test.make ~name:"mst spans any point set" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 20) (pair (float_range (-1.0) 1.0) (float_range (-1.0) 1.0)))
    (fun pts ->
      let points = Array.of_list pts in
      let n = Array.length points in
      let g = Spanner.mst ~n ~dist:(euclid points) in
      Component.is_connected g && Graph.edge_count g = n - 1)

(* --- Dijkstra.repair: incremental SSSP vs fresh recompute, bitwise --- *)

let bits = Int64.bits_of_float

(* Random connected graph as CSR, plus the arc-source table repair's
   [changed] entries need. *)
let build_random_csr rng ~n ~extra =
  let g = Graph.create n in
  for v = 1 to n - 1 do
    Graph.add_edge g (Rr_util.Prng.int rng v) v
  done;
  for _ = 1 to extra do
    let u = Rr_util.Prng.int rng n and v = Rr_util.Prng.int rng n in
    if u <> v && not (Graph.has_edge g u v) then Graph.add_edge g u v
  done;
  let off, tgt = Graph.to_csr g in
  (off, tgt, Graph.csr_mates ~off ~tgt, Arc_weight.sources off)

let check_same_tree ~label ~what (got : Dijkstra.tree) (want : Dijkstra.tree) =
  Array.iteri
    (fun v d ->
      if bits d <> bits want.Dijkstra.dist.(v) then
        Alcotest.failf "%s: %s dist mismatch at node %d (%h vs %h)" label what v
          d want.Dijkstra.dist.(v);
      if got.Dijkstra.parent.(v) <> want.Dijkstra.parent.(v) then
        Alcotest.failf "%s: %s parent mismatch at node %d" label what v)
    got.Dijkstra.dist

(* Repair [base] (computed under [w_old]) into the tree for [w_new] and
   check it is bit-identical — dist AND parent — to a fresh run.
   [weight_hook] runs on every new-weight lookup the repair makes. *)
let check_repair ~label ?frontier_limit ?weight_hook ~n ~off ~tgt ~mate ~w_old
    ~w_new ~changed ~src () =
  let old_weight k = w_old.(k) in
  let weight =
    match weight_hook with
    | None -> fun k -> w_new.(k)
    | Some hook ->
      fun k ->
        hook ();
        w_new.(k)
  in
  let base =
    Dijkstra.single_source_flat ~n ~off ~tgt ~weight:(Dijkstra.Fn old_weight) ~src
  in
  let snapshot =
    { Dijkstra.dist = Array.copy base.Dijkstra.dist;
      parent = Array.copy base.Dijkstra.parent }
  in
  let fresh =
    Dijkstra.single_source_flat ~n ~off ~tgt
      ~weight:(Dijkstra.Fn (fun k -> w_new.(k))) ~src
  in
  let repaired, stats =
    Dijkstra.repair ~n ~off ~tgt ~mate ~weight:(Dijkstra.Fn weight)
      ~old_weight:(Dijkstra.Fn old_weight) ~changed ?frontier_limit base ~src
  in
  check_same_tree ~label ~what:"repaired vs fresh" repaired fresh;
  (* The input tree must not be mutated. *)
  check_same_tree ~label ~what:"input tree after repair" base snapshot;
  stats

(* Per-arc weights from an undirected (u, v) -> w table. *)
let arc_weights ~tgt ~src_of table =
  Array.init (Array.length tgt) (fun k ->
      let u = src_of.(k) and v = tgt.(k) in
      List.assoc (min u v, max u v) table)

let diamond () =
  let g = Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3); (0, 3) ] in
  let off, tgt = Graph.to_csr g in
  (off, tgt, Graph.csr_mates ~off ~tgt, Arc_weight.sources off)

let changed_arcs ~src_of ~w_old ~w_new =
  let acc = ref [] in
  for k = Array.length w_old - 1 downto 0 do
    if bits w_old.(k) <> bits w_new.(k) then acc := (k, src_of.(k)) :: !acc
  done;
  Array.of_list !acc

let test_repair_localised_increase () =
  let off, tgt, mate, src_of = diamond () in
  let w_old =
    arc_weights ~tgt ~src_of
      [ ((0, 1), 1.0); ((1, 2), 1.0); ((2, 3), 1.0); ((0, 3), 9.5) ]
  in
  (* Raising 1-2 re-routes the {2, 3} subtree through the 0-3 arc. *)
  let w_new =
    arc_weights ~tgt ~src_of
      [ ((0, 1), 1.0); ((1, 2), 10.0); ((2, 3), 1.0); ((0, 3), 9.5) ]
  in
  let changed = changed_arcs ~src_of ~w_old ~w_new in
  Alcotest.(check int) "both directions changed" 2 (Array.length changed);
  let stats =
    check_repair ~label:"localised increase" ~n:4 ~off ~tgt ~mate ~w_old ~w_new
      ~changed ~src:0 ()
  in
  Alcotest.(check bool) "repair stayed local" false stats.Dijkstra.full;
  Alcotest.(check bool) "settled only the dirty region" true
    (stats.Dijkstra.settled > 0 && stats.Dijkstra.settled <= 4)

let test_repair_decrease () =
  let off, tgt, mate, src_of = diamond () in
  let w_old =
    arc_weights ~tgt ~src_of
      [ ((0, 1), 1.0); ((1, 2), 1.0); ((2, 3), 1.0); ((0, 3), 9.5) ]
  in
  (* Dropping 0-3 pulls node 3 (and then 2) onto the direct arc. *)
  let w_new =
    arc_weights ~tgt ~src_of
      [ ((0, 1), 1.0); ((1, 2), 1.0); ((2, 3), 1.0); ((0, 3), 0.25) ]
  in
  let changed = changed_arcs ~src_of ~w_old ~w_new in
  let stats =
    check_repair ~label:"decrease" ~n:4 ~off ~tgt ~mate ~w_old ~w_new ~changed
      ~src:0 ()
  in
  Alcotest.(check bool) "repair stayed local" false stats.Dijkstra.full

let test_repair_empty_change_is_noop () =
  let off, tgt, mate, src_of = diamond () in
  let w =
    arc_weights ~tgt ~src_of
      [ ((0, 1), 1.0); ((1, 2), 1.0); ((2, 3), 1.0); ((0, 3), 9.5) ]
  in
  let stats =
    check_repair ~label:"empty change" ~n:4 ~off ~tgt ~mate ~w_old:w ~w_new:w
      ~changed:[||] ~src:0 ()
  in
  Alcotest.(check bool) "no fallback" false stats.Dijkstra.full;
  Alcotest.(check int) "nothing settled" 0 stats.Dijkstra.settled

(* The three fallback-cause counters, then their total. *)
let fallback_counters =
  List.map
    (fun name -> Rr_obs.Counter.make ("dijkstra.repair_" ^ name))
    [ "fallback_frontier"; "fallback_tie"; "fallback_order"; "full_fallbacks" ]

(* Run [f] with telemetry on; also return how far each fallback counter
   moved. *)
let counting_fallbacks f =
  Rr_obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Rr_obs.set_enabled false) @@ fun () ->
  let before = List.map Rr_obs.Counter.value fallback_counters in
  let r = f () in
  (r, List.map2 (fun c b -> Rr_obs.Counter.value c - b) fallback_counters before)

let test_repair_frontier_fallback () =
  let off, tgt, mate, src_of = diamond () in
  let w_old =
    arc_weights ~tgt ~src_of
      [ ((0, 1), 1.0); ((1, 2), 1.0); ((2, 3), 1.0); ((0, 3), 9.5) ]
  in
  let w_new =
    arc_weights ~tgt ~src_of
      [ ((0, 1), 1.0); ((1, 2), 10.0); ((2, 3), 1.0); ((0, 3), 9.5) ]
  in
  let changed = changed_arcs ~src_of ~w_old ~w_new in
  let stats, moved =
    counting_fallbacks (fun () ->
        check_repair ~label:"frontier fallback" ~frontier_limit:0 ~n:4 ~off
          ~tgt ~mate ~w_old ~w_new ~changed ~src:0 ())
  in
  Alcotest.(check bool) "fell back to a full run" true stats.Dijkstra.full;
  Alcotest.(check (list int)) "frontier, tie, order, full" [ 1; 0; 0; 1 ] moved

let test_repair_tie_fallback () =
  let off, tgt, mate, src_of = diamond () in
  let w_old =
    arc_weights ~tgt ~src_of
      [ ((0, 1), 1.0); ((1, 2), 1.0); ((2, 3), 1.0); ((0, 3), 9.0) ]
  in
  List.iter
    (fun (label, raised) ->
      let w_new =
        arc_weights ~tgt ~src_of
          (raised
          :: List.filter
               (fun (e, _) -> e <> fst raised)
               [ ((0, 1), 1.0); ((1, 2), 1.0); ((2, 3), 1.0); ((0, 3), 9.0) ])
      in
      let changed = changed_arcs ~src_of ~w_old ~w_new in
      let stats, moved =
        counting_fallbacks (fun () ->
            check_repair ~label ~n:4 ~off ~tgt ~mate ~w_old ~w_new ~changed
              ~src:0 ())
      in
      Alcotest.(check bool) (label ^ ": fell back") true stats.Dijkstra.full;
      Alcotest.(check (list int))
        (label ^ ": frontier, tie, order, full")
        [ 0; 1; 0; 1 ] moved)
    [
      (* Raising 2-3 to 7 dirties {3}, whose two intact in-neighbours
         both offer 9. *)
      ("tie while seeding", ((2, 3), 7.0));
      (* Raising 1-2 to 9 dirties {2, 3}; 2 then costs 10 both via 1 and
         via 0-3-2, an equal-cost alternative whose winner is heap
         order's. *)
      ("tie while settling", ((1, 2), 9.0));
    ]

(* A random connected graph of [n] nodes with old and new arc weights:
   [kind] 0 raises, 1 lowers and 2 mixes up to 12 arcs. *)
type case = {
  n : int;
  off : int array;
  tgt : int array;
  mate : int array;
  w_old : float array;
  w_new : float array;
  changed : (int * int) array;
}

let random_case rng ~n ~kind =
  let off, tgt, mate, src_of = build_random_csr rng ~n ~extra:(2 * n) in
  let m = Array.length tgt in
  let w_old = Array.init m (fun _ -> 1.0 +. Rr_util.Prng.float rng 100.0) in
  let w_new = Array.copy w_old in
  for _ = 1 to 1 + Rr_util.Prng.int rng 12 do
    let k = Rr_util.Prng.int rng m in
    if bits w_new.(k) = bits w_old.(k) then
      w_new.(k) <-
        (match kind with
        | 0 -> w_old.(k) +. 0.5 +. Rr_util.Prng.float rng 80.0
        | 1 -> w_old.(k) *. (0.05 +. Rr_util.Prng.float rng 0.9)
        | _ ->
          if Rr_util.Prng.bool rng then
            w_old.(k) +. 0.5 +. Rr_util.Prng.float rng 80.0
          else w_old.(k) *. (0.05 +. Rr_util.Prng.float rng 0.9))
  done;
  { n; off; tgt; mate; w_old; w_new; changed = changed_arcs ~src_of ~w_old ~w_new }

(* [c]'s old weights with one tree arc raised: the one from [src] into
   its child with the largest subtree, which the repair must dirty. *)
let raise_tree_arc c ~src =
  let base =
    Dijkstra.single_source_flat ~n:c.n ~off:c.off ~tgt:c.tgt
      ~weight:(Dijkstra.Fn (fun k -> c.w_old.(k))) ~src
  in
  let parent = base.Dijkstra.parent in
  let size = Array.make c.n 0 in
  for v = 0 to c.n - 1 do
    let rec climb u =
      size.(u) <- size.(u) + 1;
      if parent.(u) >= 0 then climb parent.(u)
    in
    climb v
  done;
  let child = ref (-1) in
  for v = 0 to c.n - 1 do
    if parent.(v) = src && (!child < 0 || size.(v) > size.(!child)) then
      child := v
  done;
  let k = Option.get (Dijkstra.find_arc ~off:c.off ~tgt:c.tgt src !child) in
  let w_new = Array.copy c.w_old in
  w_new.(k) <- c.w_old.(k) +. 1000.0;
  { c with w_new; changed = [| (k, src) |] }

let check_case ~label ?frontier_limit ?weight_hook c ~src =
  check_repair ~label ?frontier_limit ?weight_hook ~n:c.n ~off:c.off ~tgt:c.tgt
    ~mate:c.mate ~w_old:c.w_old ~w_new:c.w_new ~changed:c.changed ~src ()

let test_repair_random_changes () =
  (* Randomized increases, decreases and mixes over random connected
     graphs; every case must be bit-identical to a fresh run. *)
  List.iter
    (fun seed ->
      let rng = Rr_util.Prng.create (Int64.of_int (0x5eed + seed)) in
      let n = 40 + Rr_util.Prng.int rng 80 in
      let kind = seed mod 3 in
      let c = random_case rng ~n ~kind in
      let src = Rr_util.Prng.int rng n in
      ignore
        (check_case ~label:(Printf.sprintf "seed %d (kind %d)" seed kind) c ~src))
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11 ]

(* The domain's repair scratch outlives each repair: graphs of
   different sizes in turn, and a repair right after a frontier
   fallback abandoned the scratch mid-marking, must each still match a
   fresh run. *)
let test_repair_sizes_in_turn () =
  let rng = Rr_util.Prng.create 0x512e5L in
  List.iteri
    (fun i (n, frontier_limit) ->
      let src = Rr_util.Prng.int rng n in
      let c = random_case rng ~n ~kind:(i mod 3) in
      let c = if frontier_limit = None then c else raise_tree_arc c ~src in
      let stats =
        check_case ~label:(Printf.sprintf "repair %d (n = %d)" i n)
          ?frontier_limit c ~src
      in
      Alcotest.(check bool)
        (Printf.sprintf "repair %d fell back iff limited" i)
        (frontier_limit <> None) stats.Dijkstra.full)
    [
      (300, None); (40, None); (120, Some 0); (120, None); (7, None);
      (500, Some 0); (60, None); (300, None);
    ]

(* A weight function that itself repairs another graph: the inner call
   must not share the outer's marks, dirty list or heap. *)
let test_repair_nested () =
  let rng = Rr_util.Prng.create 0x4e57L in
  List.iter
    (fun trigger ->
      let outer = raise_tree_arc (random_case rng ~n:150 ~kind:0) ~src:0 in
      let inner = raise_tree_arc (random_case rng ~n:260 ~kind:2) ~src:3 in
      let calls = ref 0 in
      let hook () =
        incr calls;
        if !calls = trigger then
          ignore
            (check_case ~label:(Printf.sprintf "inner at call %d" trigger) inner
               ~src:3)
      in
      ignore
        (check_case ~label:(Printf.sprintf "outer, inner at call %d" trigger)
           ~weight_hook:hook outer ~src:0);
      Alcotest.(check bool) "inner repair ran" true (!calls >= trigger);
      ignore
        (check_case ~label:(Printf.sprintf "after nesting at call %d" trigger)
           outer ~src:1))
    [ 1; 6; 40 ]

let with_domains k f =
  let old = Rr_util.Parallel.domain_count () in
  Rr_util.Parallel.set_domain_count k;
  Fun.protect ~finally:(fun () -> Rr_util.Parallel.set_domain_count old) f

(* Each pool domain repairs in its own scratch. *)
let test_repair_parallel () =
  let rng = Rr_util.Prng.create 0x9a7L in
  let c = random_case rng ~n:400 ~kind:2 in
  let old_weight k = c.w_old.(k) and weight k = c.w_new.(k) in
  let tree weight src =
    Dijkstra.single_source_flat ~n:c.n ~off:c.off ~tgt:c.tgt
      ~weight:(Dijkstra.Fn weight) ~src
  in
  let sources = Array.init 24 (fun i -> i * 13 mod c.n) in
  let bases = Array.map (tree old_weight) sources in
  List.iter
    (fun domains ->
      let repaired =
        with_domains domains (fun () ->
            Rr_util.Parallel.map_array
              (fun i ->
                fst
                  (Dijkstra.repair ~n:c.n ~off:c.off ~tgt:c.tgt ~mate:c.mate
                     ~weight:(Dijkstra.Fn weight)
                     ~old_weight:(Dijkstra.Fn old_weight) ~changed:c.changed
                     ~frontier_limit:(if i mod 5 = 0 then 1 else max_int)
                     bases.(i) ~src:sources.(i)))
              (Array.init (Array.length sources) Fun.id))
      in
      Array.iteri
        (fun i r ->
          check_same_tree
            ~label:(Printf.sprintf "pool of %d, source %d" domains sources.(i))
            ~what:"repaired vs fresh" r (tree weight sources.(i)))
        repaired)
    [ 1; 2; 4 ]

let () =
  Alcotest.run "rr_graph"
    [
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "idempotent add" `Quick test_graph_idempotent_add;
          Alcotest.test_case "self loop" `Quick test_graph_self_loop;
          Alcotest.test_case "remove" `Quick test_graph_remove;
          Alcotest.test_case "edge listing" `Quick test_graph_edges_listing;
          Alcotest.test_case "copy independence" `Quick test_graph_copy_independent;
          Alcotest.test_case "out of range" `Quick test_graph_out_of_range;
          Alcotest.test_case "csr mates involution" `Quick
            test_csr_mates_involution;
        ] );
      ( "dijkstra",
        [
          Alcotest.test_case "chain" `Quick test_dijkstra_chain;
          Alcotest.test_case "picks cheaper" `Quick test_dijkstra_picks_cheaper;
          Alcotest.test_case "disconnected" `Quick test_dijkstra_disconnected;
          Alcotest.test_case "src = dst" `Quick test_dijkstra_src_eq_dst;
          Alcotest.test_case "negative weight" `Quick test_dijkstra_negative_weight;
          Alcotest.test_case "directional weight" `Quick test_dijkstra_directional_weight;
          Alcotest.test_case "infinity removes arc" `Quick
            test_dijkstra_infinity_removes_arc;
          Alcotest.test_case "path cost" `Quick test_path_cost;
          QCheck_alcotest.to_alcotest dijkstra_matches_brute_force;
          QCheck_alcotest.to_alcotest single_pair_consistent;
        ] );
      ( "repair",
        [
          Alcotest.test_case "localised increase" `Quick
            test_repair_localised_increase;
          Alcotest.test_case "decrease" `Quick test_repair_decrease;
          Alcotest.test_case "empty change" `Quick
            test_repair_empty_change_is_noop;
          Alcotest.test_case "frontier fallback" `Quick
            test_repair_frontier_fallback;
          Alcotest.test_case "tie fallback" `Quick test_repair_tie_fallback;
          Alcotest.test_case "random changes bitwise" `Quick
            test_repair_random_changes;
          Alcotest.test_case "sizes in turn on one domain" `Quick
            test_repair_sizes_in_turn;
          Alcotest.test_case "nested repair" `Quick test_repair_nested;
          Alcotest.test_case "pool sizes 1/2/4" `Quick test_repair_parallel;
        ] );
      ( "component",
        [
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "connected" `Quick test_components_connected;
          Alcotest.test_case "empty" `Quick test_components_empty;
          Alcotest.test_case "labels with removed nodes" `Quick test_labels_removed;
        ] );
      ( "spanner",
        [
          Alcotest.test_case "mst connected" `Quick test_mst_connected;
          Alcotest.test_case "mst single node" `Quick test_mst_single_node;
          Alcotest.test_case "gabriel ring" `Quick test_gabriel_ring;
          Alcotest.test_case "knn degree" `Quick test_knn_degree;
          Alcotest.test_case "union" `Quick test_union;
          QCheck_alcotest.to_alcotest mst_always_spanning;
        ] );
    ]
