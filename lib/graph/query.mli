(** Point-to-point shortest-path queries with goal direction.

    A query object wraps one CSR geometry (offsets, targets, per-arc
    bit-miles) and serves single-pair queries under any arc weight that
    {e dominates} bit-miles ([weight k >= arc_miles k], true of every
    RiskRoute objective: risk only adds non-negative weight). Only such
    weights may use {!search}: the ALT runner's landmark bound is
    computed in bit-miles and overestimates under a weight that falls
    below them, so weights such as LARAC's scaled latency or quantised
    OSPF costs go to {!Dijkstra.single_pair_flat} instead. An
    [infinity] arc weight removes the arc in every runner (it dominates
    anything), which is how failed nodes and links are expressed. Two
    runners are available, both {!Dijkstra.search} — one loop — under
    different {!Dijkstra.potential}s:

    - {e plain} — {!Dijkstra.Zero}: Dijkstra, keyed by the labels;
    - {e alt} — A* under one of two potentials: landmark lower bounds
      ({!Dijkstra.Landmarks}: ~16 landmarks chosen by farthest-point
      selection over bit-miles, their full distance trees reused across
      every weight on the same geometry), or the destination's own
      bit-miles tree when the caller passes one ([?toward],
      {!Dijkstra.Toward}).

    Both return bit-identical (cost, path) answers: costs are the same
    left-fold of arc weights the plain kernel accumulates, and
    equal-cost tie-breaks follow the plain kernel's settle order.

    Eq. 1 callers pass their weight as data ({!Dijkstra.Miles},
    {!Dijkstra.Eq1}) to {!search}; the loop then reads it in place and
    a query allocates nothing per relaxation (see {!Dijkstra} for why
    no float may cross a call ocamlopt cannot inline). {!run} and
    {!run_stats} take a closure and wrap it in {!Dijkstra.Fn}.

    Queries reuse per-domain scratch ({!Dijkstra.workspace}) held in
    domain-local storage, so concurrent queries from a
    {!Rr_util.Parallel} pool are safe and allocation stays flat across
    repeated queries. A query claims its domain's scratch with a
    compare-and-set; one that finds it taken (another systhread of the
    same domain, or a weight function that itself runs a query) works
    in fresh scratch for that call. *)

type t

type runner = Plain | Alt

val create :
  ?landmark_count:int ->
  n:int ->
  off:int array ->
  tgt:int array ->
  miles:float array ->
  unit ->
  t
(** Wrap a CSR geometry (see {!Graph.to_csr}). [landmark_count]
    defaults to 16. The arrays are borrowed, not copied — treat them as
    frozen. *)

val node_count : t -> int
val arc_off : t -> int array
val arc_tgt : t -> int array
val arc_miles : t -> float array

val set_tree_provider : t -> (int -> Dijkstra.tree) -> unit
(** Route landmark distance-tree computation through an external cache
    (the engine's tree LRU): [prepare] will call the provider instead
    of running its own sweeps, so landmark trees are shared with every
    other consumer of the same geometry and survive in the LRU across
    advisory ticks. The provider must return pure bit-miles trees
    bit-identical to {!Dijkstra.single_source_flat} on this geometry. *)

val prepare : t -> unit
(** Select landmarks (farthest-point, deterministic) and compute their
    distance trees. Idempotent and thread-safe; implied by the first
    ALT query. *)

val prepared : t -> bool

val landmark_sources : t -> int array
(** Chosen landmark node ids ([[||]] before {!prepare}). *)

val potential : t -> dst:int -> (int -> float) option
(** Landmark lower bound on the bit-miles distance to [dst] —
    [max_L |d_L(v) - d_L(dst)|], {!Dijkstra.potential_at} under
    {!Dijkstra.Landmarks} — or [None] before {!prepare}. Valid (and
    consistent) for any weight dominating bit-miles, so external
    goal-directed searches (e.g. the valley-free BGP lift) can use it as
    an A* heuristic. *)

val choose : t -> runner
(** Selection policy for queries without a [toward] tree: plain up to
    1024 nodes, ALT above (preparing the landmarks on demand, through
    the tree provider when one is set). *)

val search :
  ?runner:runner ->
  ?toward:float array ->
  t ->
  weight:Dijkstra.weight ->
  src:int ->
  dst:int ->
  (float * int list) option * runner * int
(** Cost and node path, [None] when disconnected — bit-identical to
    {!Dijkstra.single_pair_flat} under the same weight — with the
    runner that served the query and the nodes it settled (0 for the
    trivial [src = dst] query). [weight] must satisfy
    [weight k >= arc_miles k] for every arc ([infinity] removes the
    arc). [runner] overrides {!choose}. Raises [Invalid_argument] on
    out-of-range endpoints or a negative arc weight.

    [toward], when given, must be the [dist] array of a bit-miles
    distance tree rooted at [dst] over this geometry, bit-identical to
    {!Dijkstra.single_source_flat} under [arc_miles] from [dst]; the
    geometry's arcs must carry mirrored miles (both directions of an
    edge the same value, as [Env.csr_arcs] builds them). It is the
    exact miles-to-go, so it bounds every weight that dominates miles
    and is consistent: the query is served by the Alt runner under that
    potential, at any graph size and with no landmarks prepared, and
    still returns the plain kernel's answer. An explicit [runner]
    still wins ([Plain] ignores [toward]). Raises [Invalid_argument]
    unless [Array.length toward = node_count t] and
    [toward.(dst) = 0.0]; no other property is checked.

    Settled counts feed the [query.<runner>.runs] and
    [query.<runner>.settled] {!Rr_obs} counters; an Alt query served
    under a [toward] tree also counts in [query.alt.toward]. The
    search loop's minor words go to [query.gc_minor_words]. *)

val run_stats :
  ?runner:runner ->
  ?toward:float array ->
  t ->
  weight:(int -> float) ->
  src:int ->
  dst:int ->
  (float * int list) option * runner * int
(** {!search} under [Dijkstra.Fn weight]. *)

val run :
  ?runner:runner ->
  ?toward:float array ->
  t ->
  weight:(int -> float) ->
  src:int ->
  dst:int ->
  (float * int list) option
(** The answer of {!run_stats}. *)

val runner_name : runner -> string
(** ["plain"] / ["alt"]. *)
