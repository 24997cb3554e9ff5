(** Undirected simple graphs over integer nodes [0 .. n-1].

    Edge weights are deliberately {e not} stored: every RiskRoute query
    weighs the same physical topology differently (distance-only for
    shortest path, distance-plus-scaled-risk for bit-risk miles, with a
    per-source/destination impact factor), so traversals take a weight
    function instead. *)

type t

val create : int -> t
(** [create n] is an edgeless graph on [n] nodes. *)

val node_count : t -> int

val edge_count : t -> int

val add_edge : t -> int -> int -> unit
(** Add an undirected edge; self-loops are rejected with
    [Invalid_argument]; re-adding an existing edge is a no-op. *)

val remove_edge : t -> int -> int -> unit
(** Remove the edge if present. *)

val has_edge : t -> int -> int -> bool

val neighbors : t -> int -> int list
(** Neighbour list of a node (unspecified order, no duplicates). *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Allocation-free neighbour iteration. *)

val degree : t -> int -> int

val edges : t -> (int * int) list
(** Every edge once, as [(u, v)] with [u < v]. *)

val to_csr : t -> int array * int array
(** [(off, tgt)] in compressed-sparse-row form: the out-arcs of node [u]
    are [tgt.(off.(u)) .. tgt.(off.(u + 1) - 1)] (every undirected edge
    appears as two arcs). Arc order per node matches {!iter_neighbors},
    so traversals that switch between the two representations settle
    equal-cost ties identically. The arrays are fresh snapshots: later
    mutations of the graph are not reflected. *)

val csr_mates : off:int array -> tgt:int array -> int array
(** Reverse-CSR view of a {!to_csr} snapshot: [mate.(k)] is the index of
    the opposite arc [(v, u)] for arc [k = (u, v)]. Pairing is an
    involution ([mate.(mate.(k)) = k]). Lets backward traversals weigh
    the reverse graph through forward arc indices — needed because arc
    weights are asymmetric (target-node risk). Raises
    [Invalid_argument] if the arrays are not a simple undirected CSR. *)

val copy : t -> t
(** Independent deep copy. *)

val of_edges : int -> (int * int) list -> t
(** Graph on [n] nodes with the given edges. *)
