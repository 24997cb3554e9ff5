(** A routing environment: a physical graph annotated with everything the
    bit-risk-miles metric needs — PoP coordinates, impact fractions
    [c_i], historical risk [o_h] and forecast risk [o_f] per node.

    Environments are cheap to re-derive for a new advisory tick
    ({!with_forecast}), which is how the disaster case studies step
    through a storm.

    An environment is immutable after construction: distances and risk
    terms are precomputed into flat arrays (no caches are filled behind
    the scenes), so any number of domains may route over one
    environment concurrently. *)

type t

val make :
  ?params:Params.t ->
  graph:Rr_graph.Graph.t ->
  coords:Rr_geo.Coord.t array ->
  impact:float array ->
  historical:float array ->
  ?forecast:float array ->
  unit ->
  t
(** Fully explicit constructor (tests, custom data). Array lengths must
    match the graph's node count; [forecast] defaults to all zeros. *)

val of_net :
  ?params:Params.t ->
  ?riskmap:Rr_disaster.Riskmap.t ->
  ?impact:float array ->
  ?advisory:Rr_forecast.Advisory.t ->
  Rr_topology.Net.t ->
  t
(** Environment for one ISP: impact from the shared census
    (nearest-neighbour, restricted to the network's states for
    regionals) unless overridden by [impact] (synthetic continental
    nets pass {!Rr_topology.Net.population_fractions} to skip the
    census join), historical risk from [riskmap] (default
    {!Rr_disaster.Riskmap.shared}), forecast risk from the advisory when
    given. *)

val with_forecast : t -> float array -> t
(** Same environment with a new [o_f] vector (node risks recomputed). *)

val with_advisory : t -> Rr_forecast.Advisory.t option -> t
(** Convenience: derive [o_f] from an advisory (or clear it with
    [None]) using the environment's coordinates and rho parameters. *)

val with_params : t -> Params.t -> t

val with_graph : t -> Rr_graph.Graph.t -> t
(** Same annotations on a modified topology (provisioning what-ifs). The
    new graph must have the same node count. *)

(** {1 Sparse advisory-tick patching} *)

type patched = {
  env : t;
      (** bit-identical to a from-scratch build under the patched
          forecast; shares geometry (and the query facade, hence
          landmarks) with the parent *)
  changed_pops : int array;
      (** PoPs whose [node_risk] changed, increasing order *)
  patched_arcs : (int * int) array;
      (** [(arc index, arc source)] for every arc whose weight term
          changed — exactly the arcs incident {e into} a changed PoP,
          in changed-PoP order *)
}

val patch : t -> indices:int array -> values:float array -> patched
(** Apply a sparse forecast delta (new [o_f] at [indices], strictly
    increasing — the shape produced by
    [Rr_forecast.Riskfield.diff_field]) by recomputing only the risk
    vectors' changed entries: O(n) array copies plus O(degree) per
    changed PoP, no census join, no distance work, no full-risk
    recompute. When no value differs bitwise from the current field the
    parent environment itself is returned ([patched_arcs] empty).
    Raises [Invalid_argument] on malformed deltas. Runs under an
    [env.patch] span. *)

(** {1 Accessors} *)

val graph : t -> Rr_graph.Graph.t
val coords : t -> Rr_geo.Coord.t array
val params : t -> Params.t
val impact : t -> float array
val historical : t -> float array
val forecast : t -> float array

val node_risk : t -> int -> float
(** Cached [lambda_h * scale * o_h(v) + lambda_f * o_f(v)]. *)

val node_count : t -> int

val link_miles : t -> int -> int -> float
(** Great-circle miles between two nodes, evaluated on the fly with the
    lower-numbered endpoint first (0 for [u = v]): bitwise equal to
    {!arc_miles} when the pair is an arc. For pairs that are not arcs
    (candidate links); hops of a routed path read {!arc_miles}. *)

(** {1 Flattened hot-path arrays}

    The graph in CSR form with per-arc weight terms, all built once at
    construction (see {!Rr_graph.Graph.to_csr} for the layout). The
    returned arrays are the environment's own — treat them as
    read-only. Routing weighs arc [k] as
    [arc_miles k +. kappa *. arc_risk k]. *)

val arc_count : t -> int
(** Number of directed arcs (twice the undirected edge count). *)

val arc_off : t -> int array
(** CSR row offsets, length [node_count + 1]. *)

val arc_tgt : t -> int array
(** Target node per arc. *)

val arc_mate : t -> int array
(** Reverse-arc pairing ({!Rr_graph.Graph.csr_mates}): [mate.(k)] is the
    opposite direction of arc [k]. Incremental tree repair traverses
    in-arcs through it. *)

val arc_miles : t -> float array
(** Great-circle miles per arc, bitwise equal to {!link_miles} of its
    endpoints (see {!csr_arcs}). *)

val arc_risk : t -> float array
(** [node_risk] of the arc's target node, bitwise (refreshed by
    {!with_forecast} / {!with_params}). *)

val query : t -> Rr_graph.Query.t
(** The environment's point-to-point query facade, wrapping the CSR
    geometry above. Built once at construction; environments derived by
    {!with_forecast} / {!with_advisory} / {!with_params} share it (and
    hence share prepared landmarks), {!with_graph} rebuilds it. *)

val kappa : t -> int -> int -> float
(** Outage impact [kappa_ij = c_i + c_j]. *)

val eq1_weight : t -> kappa:float -> Rr_graph.Dijkstra.weight
(** The Eq. 1 arc weight under [kappa] as data the search loops read in
    place: [Eq1] over {!arc_miles} and {!arc_risk}, weighing arc [k] as
    [arc_miles k +. kappa *. arc_risk k]. *)

val mean_kappa : t -> float
(** Network-average impact [2/n], used by pair-independent analyses (see
    {!Augment}): [2.0 *. Rr_util.Arrayx.fsum (impact t) /. n], computed
    once by {!make} and shared by every environment derived from it
    ({!patch}, {!with_advisory}, {!with_params}, {!with_graph}), so
    reading it is O(1). *)

val edge_weight : t -> kappa:float -> int -> int -> float
(** [w(u, v) = d(u, v) + kappa * node_risk(v)] — the directed edge weight
    whose path sums realise Eq. 1. *)

val csr_arcs :
  Rr_graph.Graph.t ->
  Rr_geo.Coord.t array ->
  int array * int array * int array * float array
(** [csr_arcs graph coords] is the geometry every environment is built
    on: CSR offsets, targets and reverse-arc mates
    ({!Rr_graph.Graph.to_csr}, {!Rr_graph.Graph.csr_mates}) and per-arc
    great-circle miles, evaluated once per undirected edge with the
    lower-numbered endpoint first and mirrored through the mate. Callers
    that need the geometry without an environment use it so their arcs
    match an environment's bitwise (same fingerprint, same cached
    trees). *)
