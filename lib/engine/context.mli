(** The engine context: shared corpus plus content-addressed caches for
    the expensive derived artifacts.

    A context owns one network zoo, one historical riskmap, one disaster
    catalogue and one census, and memoises

    - {!Riskroute.Env} builds, keyed by (network, params, advisory)
      fingerprints in a bounded LRU — every experiment asking for the
      same environment gets the same physically-shared value;
    - Dijkstra shortest-path trees, keyed by (environment fingerprint,
      source, weight mode) in a bounded LRU — lambda sweeps and advisory
      ticks share pure-distance trees because those depend only on the
      network geometry.

    All cache operations are thread-safe: lookups and insertions happen
    under a context-private lock while artifact construction runs
    outside it, so concurrent misses at worst compute the same
    deterministic value twice. Cache traffic is visible as
    [engine.cache.*] counters in the {!Rr_obs} registry and, always, via
    {!stats}. *)

type t

type stats = {
  env_hits : int;
  env_misses : int;
  env_patched : int;  (** environments derived via {!patched_env} *)
  tree_hits : int;
  tree_misses : int;
  tree_evictions : int;  (** LRU capacity evictions *)
  settled_nodes : int;
      (** total nodes settled computing or repairing cached trees — the
          work metric the incremental path is meant to shrink *)
  delta_patched_arcs : int;  (** arcs re-weighted across all patches *)
  delta_trees_kept : int;
      (** cached trees carried across an empty-delta advisory tick *)
  delta_trees_repaired : int;
      (** cached trees incrementally repaired ({!Rr_graph.Dijkstra.repair}) *)
  delta_trees_evicted : int;
      (** cached trees whose repair fell back to a full recompute *)
}

val default_tree_cache_cap : int
(** 4096 trees, overridable per-context or via the
    [RISKROUTE_TREE_CACHE] environment variable. *)

val env_cache_cap : int
(** 256 environments per context, a fixed constant: above the 192
    environments one storm-ticks pass registers and the ones
    [report all] builds, so only a stream of distinct parameters (e.g.
    [/explain] with many [lambda_h] values) evicts. *)

val create : ?zoo:Rr_topology.Zoo.t -> ?tree_cache_cap:int -> unit -> t
(** A fresh context (empty caches). [zoo] defaults to
    {!Rr_topology.Zoo.shared}; riskmap, catalogue and census are the
    shared singletons, forced lazily. *)

val shared : unit -> t
(** The process-wide context over the shared corpus, built once — what
    the CLI, report runner and benchmarks use. *)

(** {1 Corpus} *)

val zoo : t -> Rr_topology.Zoo.t
val riskmap : t -> Rr_disaster.Riskmap.t
val catalog : t -> Rr_disaster.Catalog.t
val census_blocks : t -> Rr_census.Block.t array

val net : t -> string -> Rr_topology.Net.t option
(** Case-insensitive {!Rr_topology.Zoo.find}. *)

val require_net : t -> string -> Rr_topology.Net.t
(** Raises [Failure] with the known names when absent. *)

val nets : t -> Spec.networks -> Rr_topology.Net.t list
(** Resolve a spec's network selection; raises [Invalid_argument] for
    {!Spec.Interdomain} (use {!interdomain}) and [Failure] for unknown
    {!Spec.Named} entries. *)

val interdomain : t -> Riskroute.Interdomain.t * Riskroute.Env.t
(** Merged multi-ISP graph and its default-parameter environment,
    memoised per context (and shared with
    {!Riskroute.Interdomain.shared} when the context uses the shared
    corpus). *)

(** {1 Cached artifacts} *)

val env :
  ?params:Riskroute.Params.t ->
  ?advisory:Rr_forecast.Advisory.t ->
  t ->
  Rr_topology.Net.t ->
  Riskroute.Env.t
(** The environment for (net, params, advisory), built on first use and
    content-addressed thereafter. The cache holds at most
    {!env_cache_cap} environments, evicting the least recently used;
    evictions count in [engine.cache.env_evictions] and record an
    [evict] flight event, like the tree LRU's. Nets this context built
    with {!continental}, and any net above 1,024 PoPs (so also a
    continental net another context built), take
    {!Rr_topology.Net.population_fractions} as their impact instead of
    the census join. *)

val patched_env :
  ?advisory:Rr_forecast.Advisory.t ->
  t ->
  Rr_topology.Net.t ->
  parent:Riskroute.Env.t ->
  Riskroute.Env.t
(** Incremental twin of {!env} for advisory streams: the environment for
    (net, [parent]'s params, [advisory]), derived by diffing the new
    advisory's risk field against [parent]'s
    ({!Rr_forecast.Riskfield.diff_field}) and patching
    ({!Riskroute.Env.patch}) instead of rebuilding — bit-identical to
    what {!env} would return, registered under the same
    content-addressed cache key. The diff costs the new storm footprint
    plus the old field's non-zero points, with two compares for every
    other PoP; a non-empty delta then copies the three n-length risk
    vectors ([Env.patch]) and each repaired tree costs its dirty
    subtree plus two n-length result copies. An empty delta costs the
    diff and a walk of the tree cache.

    The parent's cached risk trees migrate to the child's namespace in
    the same step. An empty delta keeps every tree verbatim ("kept"
    means exactly that). Otherwise every tree is repaired in place via
    {!Rr_graph.Dijkstra.repair} (falling back to a full recompute when
    the dirty frontier exceeds the [RISKROUTE_REPAIR_FRONTIER] fraction
    of the node count); a tree the delta does not reach repairs with
    nothing dirty and comes back with the same values. The repairs run
    in parallel on the {!Rr_util.Parallel} pool, one task per tree
    (a single tree runs inline). The results are applied on the calling
    domain in candidate order (the LRU's remove/add, the
    repaired/evicted/settled tallies and the eviction counts), so
    counts, LRU recency and trees do not depend on the pool size; the
    migration runs under an [engine.migrate] span. The child's risk
    fingerprint chains from the parent's ({!Fingerprint.risk_delta}),
    so provenance stays exact without rehashing the arc arrays. Totals
    land in {!stats} and the [engine.delta.*] counters. [parent] must be
    an environment over the same network (typically the previous
    tick's). *)

val geometry_fp : t -> Riskroute.Env.t -> Fingerprint.t
(** {!Fingerprint.env_geometry}, memoised by the physical identity of
    the environment's arc-miles array (shared by every derivative of
    one build): the key {!dist_trees} and the landmark trees of
    {!query} live under. *)

val risk_fp : t -> Riskroute.Env.t -> Fingerprint.t
(** The environment's risk fingerprint, memoised by physical identity:
    {!Fingerprint.env_risk} for a built environment, the chained
    {!Fingerprint.risk_delta} for one {!patched_env} registered — the
    key {!risk_trees} live under. *)

val dist_trees : t -> Riskroute.Env.t -> int -> Rr_graph.Dijkstra.tree
(** [dist_trees ctx env src] is the pure bit-miles shortest-path tree
    from [src], bitwise-identical to {!Riskroute.Router.shortest_tree}.
    Keyed by the environment's {e geometry} fingerprint, so environments
    differing only in params or advisory share entries. Partially apply
    ([let trees = dist_trees ctx env in ...]) to pay the fingerprint
    once per sweep. *)

val risk_trees : t -> Riskroute.Env.t -> int -> Rr_graph.Dijkstra.tree
(** Mean-kappa risk-weighted tree from [src], bitwise-identical to a
    {!Rr_graph.Dijkstra.single_source_flat} run under
    {!Riskroute.Augment.risk_arc_weight}. Keyed by the environment's
    risk fingerprint. *)

val query : t -> Riskroute.Env.t -> Rr_graph.Query.t
(** The environment's point-to-point query facade
    ({!Riskroute.Env.query}) with its landmark distance-tree computation
    routed through this context's tree LRU (same keys as
    {!dist_trees}): ALT landmarks are cached per geometry fingerprint,
    so advisory ticks that only perturb risk reuse them. *)

val net_query : t -> Rr_topology.Net.t -> Rr_graph.Query.t
(** A query facade straight over a network's CSR — no {!Riskroute.Env}
    and no risk vectors, for callers that only need the geometry (the
    bench query kernels). Routing and explaining continental nets go
    through {!env} instead. The arcs come from
    {!Riskroute.Env.csr_arcs}, the builder every Env uses, so they match
    an Env over the same net bitwise and the geometry fingerprint (hence
    the tree-cache namespace, landmark trees included) is shared.
    Memoised per context by physical identity. *)

val continental :
  ?spec:Rr_topology.Builder.continental_spec -> t -> pops:int ->
  Rr_topology.Net.t
(** The continental-scale merged net with [pops] PoPs
    ({!Rr_topology.Builder.continental} at the zoo's default seed),
    built once per context and memoised by size. *)

(** {1 Introspection} *)

val stats : t -> stats
(** Plain-integer cache totals, maintained whether or not telemetry is
    enabled (the [engine.cache.*] counters only record when it is). *)

val stats_fields : t -> (string * int) list
(** {!stats} plus cache occupancy as flat [(name, value)] pairs from
    one locked read, in a fixed order (["env.hits"], ["env.misses"],
    ["env.patched"], ["env.cache_length"], ["tree.hits"],
    ["tree.misses"], ["tree.evictions"], ["tree.cache_length"],
    ["tree.cache_capacity"], ["tree.settled_nodes"],
    ["delta.patched_arcs"], ["delta.trees_kept"],
    ["delta.trees_repaired"], ["delta.trees_evicted"]) — the shape the
    time-series sampler records per tick via
    [Rr_obs.Series.set_stats_provider]. *)

val stats_json : t -> string
(** {!stats_fields} as a JSON document — the body the live plane's
    [/stats] endpoint serves once the CLI or bench harness registers
    [fun () -> stats_json (shared ())] with
    [Rr_live.set_stats_provider]. *)

val tree_cache_length : t -> int
val tree_cache_capacity : t -> int
val env_cache_length : t -> int
