open Rr_util

let max_ospf_weight = 65_535

let link_weights ?(max_weight = max_ospf_weight) env =
  if max_weight < 1 then invalid_arg "Ospf.link_weights: max_weight < 1";
  let kappa = Env.mean_kappa env in
  let miles = Env.arc_miles env and risk = Env.arc_risk env in
  let raw = Array.mapi (fun k m -> m +. (kappa *. risk.(k))) miles in
  let largest = Array.fold_left Float.max 0.0 raw in
  let scale = if largest > 0.0 then float_of_int max_weight /. largest else 1.0 in
  Array.map
    (fun w -> max 1 (min max_weight (int_of_float (Float.round (w *. scale)))))
    raw

(* Integer costs can fall below arc miles, so SPF takes the plain kernel,
   not the landmark-guided [Query.run]. *)
let spf_route env ~weights ~src ~dst =
  if Array.length weights <> Env.arc_count env then
    invalid_arg "Ospf.spf_route: one weight per arc expected";
  Option.map
    (fun (_, path) -> Router.route_of_path env path)
    (Rr_graph.Dijkstra.single_pair_flat ~n:(Env.node_count env)
       ~off:(Env.arc_off env) ~tgt:(Env.arc_tgt env)
       ~weight:(fun k -> float_of_int weights.(k))
       ~src ~dst)

type fidelity = {
  pairs : int;
  exact_match : float;
  risk_gap : float;
}

let fidelity ?(pair_cap = 2000) ?(seed = 0x05_9FL) env =
  let weights = link_weights env in
  let n = Env.node_count env in
  let rng = Prng.create seed in
  let pairs = Sampling.pair_indices rng ~n ~cap:pair_cap in
  let matches = ref 0 and gap = ref 0.0 and count = ref 0 in
  Array.iter
    (fun (src, dst) ->
      match (Router.riskroute env ~src ~dst, spf_route env ~weights ~src ~dst) with
      | Some exact, Some spf ->
        incr count;
        if exact.Router.path = spf.Router.path then incr matches;
        if exact.Router.bit_risk_miles > 0.0 then
          gap :=
            !gap
            +. ((spf.Router.bit_risk_miles -. exact.Router.bit_risk_miles)
               /. exact.Router.bit_risk_miles)
      | _ -> ())
    pairs;
  if !count = 0 then { pairs = 0; exact_match = 0.0; risk_gap = 0.0 }
  else
    {
      pairs = !count;
      exact_match = float_of_int !matches /. float_of_int !count;
      risk_gap = !gap /. float_of_int !count;
    }
