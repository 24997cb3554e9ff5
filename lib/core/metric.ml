(* Hop miles come from the environment's arcs, never from a fresh
   great-circle evaluation: [arc_miles] is bitwise [Env.link_miles] of
   the arc's endpoints, so the folds below are the same left folds over
   the same values the routers accumulate. *)
let fold_hops path ~init ~f =
  let rec loop acc = function
    | a :: (b :: _ as rest) -> loop (f acc a b) rest
    | [ _ ] | [] -> acc
  in
  loop init path

let path_cost env ~weight path =
  Rr_graph.Dijkstra.path_cost ~off:(Env.arc_off env) ~tgt:(Env.arc_tgt env)
    ~weight path

let bit_miles env path =
  path_cost env ~weight:(Rr_graph.Dijkstra.Miles (Env.arc_miles env)) path

let path_risk env path =
  fold_hops path ~init:0.0 ~f:(fun acc _ b -> acc +. Env.node_risk env b)

let bit_risk_miles_kappa env ~kappa path =
  path_cost env ~weight:(Env.eq1_weight env ~kappa) path

type term = {
  tail : int;
  head : int;
  miles : float;
  hist : float;
  fcst : float;
}

(* The two products replay Env.compute_node_risk's expression exactly
   ([lambda_h *. risk_scale *. o_h] is left-associated there too), so
   [hist +. fcst] is bitwise equal to the cached node risk and
   [term_weight] to [Env.edge_weight]. *)
let term env a b =
  let p = Env.params env in
  let k =
    match
      Rr_graph.Dijkstra.find_arc ~off:(Env.arc_off env) ~tgt:(Env.arc_tgt env)
        a b
    with
    | Some k -> k
    | None -> invalid_arg "Metric.term: hop is not an arc"
  in
  {
    tail = a;
    head = b;
    miles = (Env.arc_miles env).(k);
    hist = p.Params.lambda_h *. p.Params.risk_scale *. (Env.historical env).(b);
    fcst = p.Params.lambda_f *. (Env.forecast env).(b);
  }

let terms env path =
  List.rev (fold_hops path ~init:[] ~f:(fun acc a b -> term env a b :: acc))

let term_weight ~kappa t = t.miles +. (kappa *. (t.hist +. t.fcst))

let terms_total ~kappa ts =
  List.fold_left (fun acc t -> acc +. term_weight ~kappa t) 0.0 ts

let bit_risk_miles env path =
  match path with
  | [] | [ _ ] -> 0.0
  | first :: _ ->
    let rec last = function
      | [ x ] -> x
      | _ :: rest -> last rest
      | [] -> assert false
    in
    let kappa = Env.kappa env first (last path) in
    bit_risk_miles_kappa env ~kappa path
