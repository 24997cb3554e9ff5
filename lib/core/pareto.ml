type point = {
  path : int list;
  bit_miles : float;
  risk : float;
}

let point_of_path env ~kappa path =
  {
    path;
    bit_miles = Metric.bit_miles env path;
    risk = kappa *. Metric.path_risk env path;
  }

let dominates a b =
  a.bit_miles <= b.bit_miles && a.risk <= b.risk
  && (a.bit_miles < b.bit_miles || a.risk < b.risk)

let non_dominated points =
  List.filter
    (fun p -> not (List.exists (fun q -> dominates q p) points))
    points

let dedup_paths points =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun p ->
      if Hashtbl.mem seen p.path then false
      else begin
        Hashtbl.add seen p.path ();
        true
      end)
    points

let frontier ?(k = 24) env ~src ~dst =
  let kappa = Env.kappa env src dst in
  let miles = Env.arc_miles env and risk = Env.arc_risk env in
  let candidates_under weight =
    List.map snd
      (Rr_graph.Kpaths.yen ~n:(Env.node_count env) ~off:(Env.arc_off env)
         ~tgt:(Env.arc_tgt env) ~weight ~src ~dst ~k)
  in
  let by_distance = candidates_under (fun a -> miles.(a)) in
  let by_risk =
    (* pure risk, with a tiny distance tiebreak to keep paths short *)
    candidates_under (fun a -> (kappa *. risk.(a)) +. (1e-6 *. miles.(a)))
  in
  let by_combined = candidates_under (fun a -> miles.(a) +. (kappa *. risk.(a))) in
  let points =
    dedup_paths
      (List.map (point_of_path env ~kappa) (by_distance @ by_risk @ by_combined))
  in
  non_dominated points
  |> List.sort (fun a b -> Float.compare a.bit_miles b.bit_miles)

let sweep env ~src ~dst ~lambdas =
  Array.to_list lambdas
  |> List.filter_map (fun lambda_h ->
         let params = Params.with_lambda_h lambda_h (Env.params env) in
         let env' = Env.with_params env params in
         Option.map
           (fun route -> (lambda_h, route))
           (Router.riskroute env' ~src ~dst))

let knee points =
  match points with
  | [] | [ _ ] | [ _; _ ] -> None
  | first :: _ ->
    let rec last = function [ x ] -> x | _ :: tl -> last tl | [] -> assert false in
    let last_point = last points in
    let dx = last_point.bit_miles -. first.bit_miles in
    let dy = last_point.risk -. first.risk in
    let norm = sqrt ((dx *. dx) +. (dy *. dy)) in
    if norm = 0.0 then None
    else begin
      let distance_to_chord p =
        Float.abs
          ((dx *. (first.risk -. p.risk)) -. ((first.bit_miles -. p.bit_miles) *. dy))
        /. norm
      in
      Rr_util.Listx.max_by distance_to_chord points
    end
