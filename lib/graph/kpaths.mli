(** K shortest loopless paths (Yen's algorithm).

    Substrate for the multi-objective extensions: enumerating near-optimal
    paths under one weight exposes the distance/risk trade-off curve
    between two PoPs. *)

val yen :
  n:int ->
  off:int array ->
  tgt:int array ->
  weight:(int -> float) ->
  src:int ->
  dst:int ->
  k:int ->
  (float * int list) list
(** Up to [k] loopless paths in non-decreasing cost order (source first in
    each path) over a {!Graph.to_csr} adjacency; [weight] maps an arc
    index to its weight, as in {!Dijkstra.single_pair_flat}. Fewer are
    returned when the graph does not admit [k] distinct paths. Empty
    when [src] and [dst] are disconnected. *)
