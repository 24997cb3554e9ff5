(* LARAC over (latency, risk): find min risk s.t. latency <= budget. *)

let propagation_ms_per_mile = 0.0082

let latency_ms env path =
  propagation_ms_per_mile *. Metric.bit_miles env path

type constrained = {
  route : Router.route;
  latency : float;
  risk : float;
  optimal : bool;
}

let path_risk_scaled env ~kappa path = kappa *. Metric.path_risk env path

let measure env ~kappa path =
  (latency_ms env path, path_risk_scaled env ~kappa path)

(* Dijkstra under the aggregated weight  risk + multiplier * latency
   (multiplier in risk-per-ms). The weight can fall below arc miles, so
   it takes the plain kernel, not the landmark-guided [Query.run]. *)
let aggregated_path env ~kappa ~multiplier ~src ~dst =
  let miles = Env.arc_miles env and risk = Env.arc_risk env in
  let weight k =
    (kappa *. risk.(k)) +. (multiplier *. propagation_ms_per_mile *. miles.(k))
  in
  Option.map snd
    (Rr_graph.Dijkstra.single_pair_flat ~n:(Env.node_count env)
       ~off:(Env.arc_off env) ~tgt:(Env.arc_tgt env) ~weight ~src ~dst)

let constrained_route ?(iterations = 32) env ~src ~dst ~max_latency_ms =
  if max_latency_ms <= 0.0 then invalid_arg "Sla.constrained_route: non-positive budget";
  let kappa = Env.kappa env src dst in
  let finish ~optimal path =
    let latency, risk = measure env ~kappa path in
    Some { route = Router.route_of_path env path; latency; risk; optimal }
  in
  (* Risk-optimal path: if it fits, done. *)
  match Router.riskroute env ~src ~dst with
  | None -> None
  | Some risk_opt ->
    let risk_path = risk_opt.Router.path in
    if latency_ms env risk_path <= max_latency_ms then finish ~optimal:true risk_path
    else begin
      (* Latency-optimal path: if even this violates, infeasible. *)
      match Router.shortest env ~src ~dst with
      | None -> None
      | Some lat_opt ->
        let lat_path = lat_opt.Router.path in
        if latency_ms env lat_path > max_latency_ms then None
        else begin
          (* LARAC binary search on the multiplier: small multiplier
             favours risk (infeasible side), large favours latency
             (feasible side). *)
          let best_feasible = ref lat_path in
          let lo = ref 0.0 and hi = ref 1.0 in
          (* grow hi until feasible *)
          let rec grow n =
            if n = 0 then ()
            else
              match aggregated_path env ~kappa ~multiplier:!hi ~src ~dst with
              | Some path when latency_ms env path <= max_latency_ms ->
                best_feasible := path
              | Some _ | None ->
                hi := !hi *. 8.0;
                grow (n - 1)
          in
          grow 24;
          let closed = ref false in
          for _ = 1 to iterations do
            if not !closed then begin
              let mid = (!lo +. !hi) /. 2.0 in
              match aggregated_path env ~kappa ~multiplier:mid ~src ~dst with
              | None -> closed := true
              | Some path ->
                let latency, risk = measure env ~kappa path in
                if latency <= max_latency_ms then begin
                  let _, best_risk = measure env ~kappa !best_feasible in
                  if risk < best_risk then best_feasible := path;
                  hi := mid;
                  (* relaxation closes when the feasible path is also the
                     aggregated optimum at a multiplier where the
                     infeasible side agrees *)
                  if path = !best_feasible && latency = max_latency_ms then
                    closed := true
                end
                else lo := mid
            end
          done;
          (* LARAC guarantee: best_feasible is optimal iff the lower bound
             from the infeasible side meets it; we report optimal only in
             the trivial closures above. *)
          finish ~optimal:false !best_feasible
        end
    end
