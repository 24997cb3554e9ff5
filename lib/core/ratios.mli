(** The paper's evaluation metrics (Eqs. 5-6).

    Risk reduction ratio (Eq. 5): [rr = 1 - (1/N^2) sum_ij r(p_rr) / r(p_shortest)].
    Distance increase ratio (Eq. 6): [dr = (1/N^2) sum_ij d(p_rr) / d(p_shortest) - 1].
    Following the paper's formulas literally, the denominator is the FULL
    N^2 pair universe: the i = j diagonal contributes zero to each sum,
    which scales the off-diagonal mean by (1 - 1/N). Disconnected pairs
    are skipped.

    On large networks the all-pairs sweep can be capped: pairs are then
    sampled deterministically (fixed seed per call), so repeated runs are
    reproducible. *)

type result = {
  risk_reduction : float;
  distance_increase : float;
  pairs : int;  (** pairs actually evaluated *)
}

val intradomain :
  ?pair_cap:int -> ?seed:int64 -> ?trees:(int -> Rr_graph.Dijkstra.tree) ->
  Env.t -> result
(** Eqs. 5-6 over all ordered PoP pairs of one network (capped to
    [pair_cap], default 20,000). Each sweep takes one geographic
    shortest-path tree per distinct endpoint (source or destination of
    a sampled pair): a source's tree answers the shortest half of its
    pairs, and a destination's tree steers each RiskRoute search toward
    it ({!Router.riskroute}'s [toward]). [trees], when given, supplies
    those trees in place of {!Router.shortest_tree} — callers with a
    cache (see [Rr_engine.Context.dist_trees]) avoid recomputing
    identical trees; supplied trees must be bitwise-identical to the
    defaults, since they serve both halves. *)

val between :
  ?pair_cap:int -> ?seed:int64 -> ?trees:(int -> Rr_graph.Dijkstra.tree) ->
  Env.t -> sources:int array -> dests:int array -> result
(** Same ratios restricted to given source and destination node sets —
    the interdomain evaluation of Sec. 7 (regional PoPs as sources, all
    regional PoPs as destinations). *)

val weighted :
  ?pair_cap:int -> ?seed:int64 -> ?trees:(int -> Rr_graph.Dijkstra.tree) ->
  weight:(int -> int -> float) -> Env.t -> result
(** Traffic-weighted variant (the Sec. 5 extension "impact ... influenced
    by traffic flows"): per-pair ratios are averaged with weight
    [weight i j] (e.g. a {!Rr_topology.Traffic} gravity demand) instead
    of uniformly; the paper's [1/N^2] diagonal convention does not apply
    (the diagonal carries no traffic). Pairs with non-positive weight are
    skipped. *)
