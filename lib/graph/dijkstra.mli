(** Dijkstra shortest paths over a CSR adjacency with a caller-supplied
    arc-weight function.

    This is the optimiser behind both shortest-path (bit-miles) routing and
    RiskRoute (bit-risk-miles, Eq. 3 of the paper): the two differ only in
    the weight function. Graphs come in the {!Graph.to_csr} layout and
    [weight] maps an {e arc index} to its weight. Weights must be
    non-negative; an [infinity] weight removes the arc (it is never
    relaxed), which is how callers express failed nodes and links. *)

type tree = {
  dist : float array;  (** [infinity] for unreachable nodes *)
  parent : int array;  (** [-1] for the source and unreachable nodes *)
}
(** Trees are write-once: no function in this library mutates a
    returned tree, so callers may share them freely — the engine's
    tree cache ([Rr_engine.Context]) hands the same physical tree to
    every consumer, and [Augment] aliases [dist] arrays as all-pairs
    matrix rows. Anyone relaxing a cached row must copy it first. *)

val single_source_flat :
  n:int ->
  off:int array ->
  tgt:int array ->
  weight:(int -> float) ->
  src:int ->
  tree
(** Full shortest-path tree from [src]. Arc targets and weights are
    contiguous arrays, so relaxation does no list traversal and no
    per-edge recomputation. Equal-cost ties go to the first arc
    relaxed, in CSR order. *)

val single_pair_flat :
  n:int ->
  off:int array ->
  tgt:int array ->
  weight:(int -> float) ->
  src:int ->
  dst:int ->
  (float * int list) option
(** Cost and node path (source first) from [src] to [dst]; [None] when
    disconnected. Terminates early once [dst] is settled. *)

type repair_stats = {
  settled : int;  (** nodes settled while repairing (or by the fallback run) *)
  full : bool;  (** [true] when the repair fell back to a fresh run *)
}

val repair :
  n:int ->
  off:int array ->
  tgt:int array ->
  mate:int array ->
  weight:(int -> float) ->
  old_weight:(int -> float) ->
  changed:(int * int) array ->
  ?frontier_limit:int ->
  tree ->
  src:int ->
  tree * repair_stats
(** Ramalingam–Reps-style incremental SSSP repair: given a tree that was
    computed from [src] under [old_weight] and a sparse set of changed
    arcs [(arc index, arc source)], produce the tree for [weight] —
    bit-identical ([dist] and [parent]) to a fresh
    {!single_source_flat} run under [weight]. [mate] is the reverse-CSR
    pairing from {!Graph.csr_mates} (repairs traverse in-arcs).

    Only the subtrees hanging under increased tree arcs are invalidated
    and re-settled, so a storm-local weight change settles a storm-local
    node count. A repair costs its dirty subtree and their in-arcs, the
    changed arcs, and the nodes it re-settles with their out-arcs, plus
    two n-length copies for the result's [dist] and [parent] (the input tree is not mutated, since
    cached trees are shared). Its dirty and settled marks, dirty list
    and heap are domain-local scratch with generation stamps, claimed
    with a compare-and-set so that systhreads of one domain and nested
    calls each get their own.

    The repair falls back to a full recompute (reported via
    [full = true]) and counts the cause: [dijkstra.repair_fallback_frontier]
    when the invalidated region exceeds [frontier_limit] nodes (default:
    never), [dijkstra.repair_fallback_tie] when an equal-cost tie is
    encountered whose winner would depend on heap order, and
    [dijkstra.repair_fallback_order] on a strict improvement into an
    already-settled node. The three sum to
    [dijkstra.repair_full_fallbacks]. The bit-identity guarantee is
    unconditional either way. Each call runs under a [dijkstra.repair]
    span. *)

val path_of_tree : tree -> src:int -> dst:int -> int list option
(** Recover the node path from a tree; [None] when [dst] unreachable. *)

val find_arc : off:int array -> tgt:int array -> int -> int -> int option
(** [find_arc ~off ~tgt a b] is the index of arc [(a, b)], [None] when
    the CSR has no such arc. Linear in the degree of [a]. *)

val path_cost :
  off:int array -> tgt:int array -> weight:(int -> float) -> int list -> float
(** Left-fold of arc weights along a node path (0 for paths of length
    < 2) — the float association the kernel accumulates, so it matches a
    search's cost bitwise. Raises [Invalid_argument] when a hop is not
    an arc of the CSR. *)
