type route = {
  path : int list;
  bit_miles : float;
  bit_risk_miles : float;
}

let route_of_path env path =
  {
    path;
    bit_miles = Metric.bit_miles env path;
    bit_risk_miles = Metric.bit_risk_miles env path;
  }

(* Single-pair queries go through the environment's query facade, which
   picks plain or ALT per graph size (or A* under the destination's
   tree when one is given) while returning answers bit-identical to
   [Dijkstra.single_pair_flat]. The weights are data, so the search
   allocates nothing per relaxation. *)
let riskroute ?toward env ~src ~dst =
  let weight = Env.eq1_weight env ~kappa:(Env.kappa env src dst) in
  let toward = Option.map (fun tr -> tr.Rr_graph.Dijkstra.dist) toward in
  match Rr_graph.Query.search ?toward (Env.query env) ~weight ~src ~dst with
  | None, _, _ -> None
  | Some (cost, path), _, _ ->
    Some { path; bit_miles = Metric.bit_miles env path; bit_risk_miles = cost }

let shortest_tree env ~src =
  Rr_graph.Dijkstra.single_source_flat ~n:(Env.node_count env)
    ~off:(Env.arc_off env) ~tgt:(Env.arc_tgt env)
    ~weight:(Rr_graph.Dijkstra.Miles (Env.arc_miles env))
    ~src

let shortest_of_tree env tree ~src ~dst =
  if src = dst then
    Some { path = [ src ]; bit_miles = 0.0; bit_risk_miles = 0.0 }
  else
    match Rr_graph.Dijkstra.path_of_tree tree ~src ~dst with
    | None -> None
    | Some path ->
      Some
        {
          path;
          bit_miles = tree.Rr_graph.Dijkstra.dist.(dst);
          bit_risk_miles = Metric.bit_risk_miles env path;
        }

let shortest env ~src ~dst =
  match
    Rr_graph.Query.search (Env.query env)
      ~weight:(Rr_graph.Dijkstra.Miles (Env.arc_miles env))
      ~src ~dst
  with
  | None, _, _ -> None
  | Some (cost, path), _, _ ->
    Some { path; bit_miles = cost; bit_risk_miles = Metric.bit_risk_miles env path }
