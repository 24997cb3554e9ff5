(** Intradomain RiskRoute (Eq. 3): the path minimising bit-risk miles.

    Because [kappa_ij] is constant along a path once its endpoints are
    fixed, Eq. 3 reduces to one Dijkstra run per (source, destination)
    pair over edge weights [d(u,v) + kappa_ij * node_risk(v)] — exactly
    the "constructed risk graph" of Sec. 6.4. *)

type route = {
  path : int list;           (** node path, source first *)
  bit_miles : float;
  bit_risk_miles : float;
}

val riskroute :
  ?toward:Rr_graph.Dijkstra.tree -> Env.t -> src:int -> dst:int -> route option
(** Minimum bit-risk-miles route; [None] when disconnected. [toward],
    when given, must be the {!shortest_tree} rooted at [dst] (or a tree
    bitwise equal to it, such as a cached one): the search then runs as
    A* toward [dst] under its exact miles-to-go, settling fewer nodes
    for the same route (see {!Rr_graph.Query.search}). Raises
    [Invalid_argument] when its [dist] does not have one entry per PoP
    or is not [0.0] at [dst]. *)

val shortest : Env.t -> src:int -> dst:int -> route option
(** Geographic shortest path (the paper's stand-in for production
    routing), with its bit-risk miles evaluated under the same
    environment for comparison. *)

val route_of_path : Env.t -> int list -> route
(** Evaluate both metrics on an externally chosen path. *)

val shortest_tree : Env.t -> src:int -> Rr_graph.Dijkstra.tree
(** Full geographic shortest-path tree from one source. One tree serves
    every destination: the pair sweeps in {!Ratios} fetch one per
    endpoint, so a single Dijkstra run replaces hundreds of
    {!shortest} calls, and the same tree, rooted at a destination, is
    {!riskroute}'s [toward]. *)

val shortest_of_tree :
  Env.t -> Rr_graph.Dijkstra.tree -> src:int -> dst:int -> route option
(** Extract one destination's route from a {!shortest_tree}. Produces
    exactly the route {!shortest} would return for the pair (the
    early-stopped and full runs settle the path identically). *)
