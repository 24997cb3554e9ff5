type repair = {
  failed_link : (int * int) option;
  failed_node : int option;
  route : Router.route option;
}

type plan = {
  primary : Router.route;
  repairs : repair list;
}

(* Removed links and nodes weigh infinity, so the search runs on the
   surviving topology: a banned link masks its arc and the mate, a
   banned node every arc into and out of it. *)
let route_avoiding env ~src ~dst ~banned_links ~banned_nodes =
  let kappa = Env.kappa env src dst in
  let off = Env.arc_off env and tgt = Env.arc_tgt env and mate = Env.arc_mate env in
  let removed = Array.make (Array.length tgt) false in
  let remove k =
    removed.(k) <- true;
    removed.(mate.(k)) <- true
  in
  List.iter (fun (u, v) -> Option.iter remove (Rr_graph.Dijkstra.find_arc ~off ~tgt u v))
    banned_links;
  List.iter (fun v -> for k = off.(v) to off.(v + 1) - 1 do remove k done) banned_nodes;
  let miles = Env.arc_miles env and risk = Env.arc_risk env in
  let weight k =
    if removed.(k) then infinity else miles.(k) +. (kappa *. risk.(k))
  in
  Option.map
    (fun (_, path) -> Router.route_of_path env path)
    (Rr_graph.Query.run (Env.query env) ~weight ~src ~dst)

let plan env ~src ~dst =
  match Router.riskroute env ~src ~dst with
  | None -> None
  | Some primary ->
    let path = Array.of_list primary.Router.path in
    let link_repairs =
      List.init
        (Array.length path - 1)
        (fun i ->
          let link = (path.(i), path.(i + 1)) in
          {
            failed_link = Some link;
            failed_node = None;
            route = route_avoiding env ~src ~dst ~banned_links:[ link ] ~banned_nodes:[];
          })
    in
    let node_repairs =
      List.init
        (max 0 (Array.length path - 2))
        (fun i ->
          let node = path.(i + 1) in
          {
            failed_link = None;
            failed_node = Some node;
            route = route_avoiding env ~src ~dst ~banned_links:[] ~banned_nodes:[ node ];
          })
    in
    Some { primary; repairs = link_repairs @ node_repairs }

let coverage plan =
  match plan.repairs with
  | [] -> 1.0
  | repairs ->
    let covered =
      List.length (List.filter (fun r -> r.route <> None) repairs)
    in
    float_of_int covered /. float_of_int (List.length repairs)

let worst_stretch plan =
  List.fold_left
    (fun acc r ->
      match r.route with
      | Some route when plan.primary.Router.bit_miles > 0.0 ->
        Float.max acc (route.Router.bit_miles /. plan.primary.Router.bit_miles)
      | Some _ | None -> acc)
    1.0 plan.repairs
