(** Connectivity queries.

    One labelling loop serves every connectivity question in the repo:
    {!labels} runs over CSR arrays (an environment's [arc_off] /
    [arc_tgt], or {!Graph.to_csr}) with a mask of removed nodes, and
    {!components} is that labelling of a whole graph with nothing
    removed. The outage analyses label each strike once and answer
    every pair's reachability with one comparison. *)

val labels : off:int array -> tgt:int array -> removed:bool array -> int array
(** [labels ~off ~tgt ~removed] labels the connected components of the
    CSR graph ({!Graph.to_csr} layout) once every node [v] with
    [removed.(v)] is deleted. Removed nodes get [-1]; surviving
    components get dense labels from [0], numbered in order of their
    smallest node. Two surviving nodes are connected in the graph
    without the removed nodes exactly when their labels are equal.
    O(nodes + arcs), depth-first with an explicit int-array stack.
    Raises [Invalid_argument] when [removed] does not have one entry per
    node ([Array.length off - 1]). *)

val components : Graph.t -> int array
(** {!labels} of [Graph.to_csr g] with nothing removed: a component
    label per node, dense from 0, numbered in smallest-node order. *)

val component_count : Graph.t -> int

val is_connected : Graph.t -> bool
(** True for the empty graph and any graph with one component. *)

val largest_component : Graph.t -> int list
(** Nodes of a largest connected component. *)
