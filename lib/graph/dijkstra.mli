(** Dijkstra shortest paths over a CSR adjacency.

    This is the optimiser behind both shortest-path (bit-miles) routing and
    RiskRoute (bit-risk-miles, Eq. 3 of the paper): the two differ only in
    the arc weight. Graphs come in the {!Graph.to_csr} layout and a
    {!weight} gives each {e arc index} its weight. Weights must be
    non-negative; an [infinity] weight removes the arc (it is never
    relaxed), which is how callers express failed nodes and links.

    {b Every search loop lives in this module.} The dev profile, which
    [dune build], [dune runtest] and the benchmark compile, passes
    [-opaque] to every module, so ocamlopt cannot inline a call from one
    module into another, and a float passed to or returned from such a
    call is boxed: one minor allocation per call. The rule here is that
    no float passes through a call ocamlopt cannot inline. Weights and
    potentials are therefore plain data ({!weight}, {!potential}) that
    the loops read in place, the loops and the heap push they share sit
    in this one compilation unit, and the heap minimum is read in place.
    Under {!Miles} and {!Eq1}, a tree, a repair and a query allocate
    nothing per relaxation; under {!Fn} each relaxation costs a closure
    call and a boxed float, as any closure does. *)

type tree = {
  dist : float array;  (** [infinity] for unreachable nodes *)
  parent : int array;  (** [-1] for the source and unreachable nodes *)
}
(** Trees are write-once: no function in this library mutates a
    returned tree, so callers may share them freely — the engine's
    tree cache ([Rr_engine.Context]) hands the same physical tree to
    every consumer, and [Augment] aliases [dist] arrays as all-pairs
    matrix rows. Anyone relaxing a cached row must copy it first. *)

(** Arc weights, matched once per relaxation. *)
type weight =
  | Miles of float array  (** [miles.(k)]: bit-miles *)
  | Eq1 of { miles : float array; risk : float array; kappa : float }
      (** [miles.(k) +. (kappa *. risk.(k))]: the Eq. 1 arc weight, the
          expression every router's weight closure computed, so its
          bits are theirs. {!Miles} stays a separate arm because
          [kappa = 0.0] gives [miles.(k)] bitwise only for finite risk
          ([0.0 *. infinity] is NaN). *)
  | Fn of (int -> float)
      (** Any other weight (failure masks, OSPF integers, LARAC's scaled
          latency): a closure call per relaxation. *)
(** The arrays are indexed by arc and read unchecked inside the loops,
    so every entry point raises [Invalid_argument] when one is shorter
    than the CSR's arc count. *)

val single_source_flat :
  n:int ->
  off:int array ->
  tgt:int array ->
  weight:weight ->
  src:int ->
  tree
(** Full shortest-path tree from [src]. Arc targets and weights are
    contiguous arrays, so relaxation does no list traversal and no
    per-edge recomputation. Equal-cost ties go to the first arc
    relaxed, in CSR order. The settled marks and the heap are the
    domain-local scratch {!repair} uses, so a run allocates its result's
    [dist] and [parent] and nothing else. With telemetry on, each run
    adds its loop's minor words to [dijkstra.gc_minor_words] (0 under
    {!Miles} and {!Eq1}). *)

val single_pair_flat :
  n:int ->
  off:int array ->
  tgt:int array ->
  weight:(int -> float) ->
  src:int ->
  dst:int ->
  (float * int list) option
(** Cost and node path (source first) from [src] to [dst]; [None] when
    disconnected. Terminates early once [dst] is settled. The closure
    reference every faster path is checked against: it runs the tree
    kernel under [Fn weight], stopped at [dst]. *)

type repair_stats = {
  settled : int;  (** nodes settled while repairing (or by the fallback run) *)
  full : bool;  (** [true] when the repair fell back to a fresh run *)
}

val repair :
  n:int ->
  off:int array ->
  tgt:int array ->
  mate:int array ->
  weight:weight ->
  old_weight:weight ->
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

(** {1 Point-to-point search} *)

(** A* potentials, read in place by the search loop. *)
type potential =
  | Zero  (** plain Dijkstra: heap keys are the labels themselves *)
  | Toward of float array
      (** [a.(v)]: the caller's exact lower bound on the cost to go,
          such as the destination's bit-miles tree *)
  | Landmarks of float array array
      (** [max_L |d_L(v) - d_L(dst)|] over the landmark trees [d_L],
          skipping non-finite terms; memoised per search *)

val potential_at : potential -> dst:int -> int -> float
(** The potential of node [v] for a search toward [dst], as the loop
    computes it. Raises [Invalid_argument] on an out-of-range node. *)

type workspace
(** A search's scratch: labels, parents and settled marks kept pristine
    between searches, the heap, the list of labelled nodes and the
    landmark memo. One search at a time may use a workspace. *)

val workspace : unit -> workspace
(** An empty workspace; it grows to the graph on first use. *)

val search :
  workspace ->
  n:int ->
  off:int array ->
  tgt:int array ->
  weight:weight ->
  potential:potential ->
  src:int ->
  dst:int ->
  (float * int list) option * int
(** A* from [src] to [dst] under [potential]: the cost and path, and the
    number of nodes settled (0 when [src = dst]). Labels are the same
    left-folds of arc weights under every potential and a node relaxes
    from its label at its first pop, so for any potential that is a
    consistent lower bound for [weight], cost, path and equal-cost
    tie-breaks are {!single_pair_flat}'s, and under {!Zero} the settled
    count is too. The workspace is pristine again when [search] returns
    or raises. With telemetry on, the loop's minor words are added to
    [query.gc_minor_words] on the calling domain (0 under {!Miles} and
    {!Eq1}). Raises [Invalid_argument] on out-of-range endpoints, a
    negative arc weight or a potential shorter than the nodes. *)

(** {1 Paths} *)

val path_of_tree : tree -> src:int -> dst:int -> int list option
(** Recover the node path from a tree; [None] when [dst] unreachable. *)

val find_arc : off:int array -> tgt:int array -> int -> int -> int option
(** [find_arc ~off ~tgt a b] is the index of arc [(a, b)], [None] when
    the CSR has no such arc. Linear in the degree of [a]. *)

val path_cost : off:int array -> tgt:int array -> weight:weight -> int list -> float
(** Left-fold of arc weights along a node path (0 for paths of length
    < 2) — the float association the kernel accumulates, so it matches a
    search's cost bitwise. Raises [Invalid_argument] when a hop is not
    an arc of the CSR. *)

(** {1 Heap} *)

(** Imperative binary min-heap of int values (node or state ids) keyed
    by floats: the priority queue of every loop above, and of
    [Riskroute.Bgp]'s lifted search. Values are ints so that storing one
    needs no write barrier. Stale entries are handled by lazy deletion:
    pushing a better key for an element is allowed, and consumers skip
    pops they have already settled. The loops above inline the push and
    read the minimum in place; from another module every key passed or
    returned is boxed. *)
module Heap : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** Fresh empty heap. *)

  val length : t -> int
  (** Number of (possibly stale) entries currently stored. *)

  val is_empty : t -> bool

  val push : t -> float -> int -> unit
  (** [push h key v] inserts [v] with priority [key]. *)

  val pop_min : t -> (float * int) option
  (** Removes and returns the entry with the smallest key, or [None] when
      empty. Ties are broken arbitrarily. *)

  val clear : t -> unit
  (** Drop all entries, retaining allocated capacity. *)

  val ensure_capacity : t -> int -> unit
  (** Grow the backing arrays to hold at least [cap] entries without
      further reallocation. With {!clear} this lets a long-lived heap be
      reused across searches: size it to the graph once, then pushes
      never grow it. Never shrinks. *)
end
