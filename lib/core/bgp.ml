(* Valley-free Dijkstra over a 3-phase lifted graph.

   Phase 0 (climbing): may traverse customer->provider interconnects and
   stay climbing, cross one peering (-> phase 1), or start descending via
   provider->customer (-> phase 2).
   Phase 1 (peered):   may only descend (-> phase 2).
   Phase 2 (descend):  may only keep descending.
   Intra-network links never change phase.

   The search walks the environment's CSR arcs with an arc-indexed
   weight, like every other router. [Graph.to_csr] lays each row out in
   adjacency-list order, so relaxation order and equal-cost tie-breaks
   are those of a walk over the adjacency lists. *)

let phases = 3

let transitions relationship phase =
  match (relationship, phase) with
  | Rr_topology.Peering.Customer_to_provider, 0 -> Some 0
  | Rr_topology.Peering.Peer_to_peer, 0 -> Some 1
  | Rr_topology.Peering.Provider_to_customer, (0 | 1 | 2) -> Some 2
  | Rr_topology.Peering.Customer_to_provider, _
  | Rr_topology.Peering.Peer_to_peer, _ ->
    None
  | _, _ -> None

let lifted_dijkstra merged env ~weight ~src ~dst =
  let peering = Interdomain.peering merged in
  let off = Env.arc_off env and tgt = Env.arc_tgt env in
  let n = Env.node_count env in
  let size = n * phases in
  let dist = Array.make size infinity in
  let parent = Array.make size (-1) in
  let settled = Array.make size false in
  let heap = Rr_graph.Dijkstra.Heap.create ~capacity:(4 * n) () in
  let state node phase = (node * phases) + phase in
  (* Goal direction rides along when the environment's query facade has
     landmarks prepared: heap keys carry the landmark lower bound on the
     remaining bit-miles (valid here too — valley-free constraints only
     shrink the path set, and lifted weights dominate bit-miles), while
     relaxations keep using the raw labels, so distances are unchanged. *)
  let pot =
    match Rr_graph.Query.potential (Env.query env) ~dst with
    | Some f -> f
    | None -> fun _ -> 0.0
  in
  dist.(state src 0) <- 0.0;
  Rr_graph.Dijkstra.Heap.push heap (pot src) (state src 0);
  let best_dst = ref None in
  let continue = ref true in
  while !continue do
    match Rr_graph.Dijkstra.Heap.pop_min heap with
    | None -> continue := false
    | Some (_, s) ->
      if not settled.(s) then begin
        settled.(s) <- true;
        let d = dist.(s) in
        let node = s / phases and phase = s mod phases in
        if node = dst then begin
          best_dst := Some s;
          continue := false
        end
        else
          for k = off.(node) to off.(node + 1) - 1 do
            let next = tgt.(k) in
            let next_phase =
              let owner_here = Interdomain.owner merged node in
              let owner_next = Interdomain.owner merged next in
              if owner_here = owner_next then Some phase
              else
                match
                  Rr_topology.Peering.relationship peering owner_here owner_next
                with
                | Some relationship -> transitions relationship phase
                | None -> None
            in
            match next_phase with
            | None -> ()
            | Some next_phase ->
              let s' = state next next_phase in
              if not settled.(s') then begin
                let nd = d +. weight k in
                if nd < dist.(s') then begin
                  dist.(s') <- nd;
                  parent.(s') <- s;
                  Rr_graph.Dijkstra.Heap.push heap (nd +. pot next) s'
                end
              end
          done
      end
  done;
  match !best_dst with
  | None -> None
  | Some s ->
    let rec build acc s =
      let node = s / phases in
      if parent.(s) = -1 then node :: acc else build (node :: acc) parent.(s)
    in
    Some (dist.(s), build [] s)

let route merged env ~src ~dst =
  if src = dst then Some (Router.route_of_path env [ src ])
  else begin
    let kappa = Env.kappa env src dst in
    let miles = Env.arc_miles env and risk = Env.arc_risk env in
    let weight k = miles.(k) +. (kappa *. risk.(k)) in
    match lifted_dijkstra merged env ~weight ~src ~dst with
    | Some (_, path) -> Some (Router.route_of_path env path)
    | None -> None
  end

let shortest merged env ~src ~dst =
  if src = dst then Some (Router.route_of_path env [ src ])
  else
    let miles = Env.arc_miles env in
    match lifted_dijkstra merged env ~weight:(fun k -> miles.(k)) ~src ~dst with
    | Some (_, path) -> Some (Router.route_of_path env path)
    | None -> None

type bounds = {
  upper : float;
  policy : float;
  lower : float;
}

let bounds merged env ~src ~dst =
  match
    ( Router.shortest env ~src ~dst,
      route merged env ~src ~dst,
      Router.riskroute env ~src ~dst )
  with
  | Some upper, Some policy, Some lower ->
    Some
      {
        upper = upper.Router.bit_risk_miles;
        policy = policy.Router.bit_risk_miles;
        lower = lower.Router.bit_risk_miles;
      }
  | _ -> None
