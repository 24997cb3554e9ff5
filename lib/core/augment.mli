(** Robustness analysis: which links to add (Sec. 6.3, Eq. 4).

    Finds the candidate link minimising the total aggregated bit-risk
    miles over all network pairs, then greedily repeats for the k-th
    link. Candidate links are non-edges whose direct distance shortens
    the current bit-miles between their endpoints by more than 50%
    (the paper's rule for pruning impractical cross-country links).

    To keep each greedy round O(candidates * n^2) the objective is
    evaluated with the network-mean impact [kappa = 2/n] rather than the
    per-pair [kappa_ij] (the single-edge-insertion identity needs a
    pair-independent edge weight); tests validate the approximation
    against brute force on small graphs.

    Candidate scoring fans out on the {!Rr_util.Parallel} domain pool,
    and rounds after the first rescore incrementally: only candidates
    whose endpoint rows/columns were touched by the last insertion are
    rescored in full, the rest receive an O(|changed cells|) delta.
    Results are bit-identical at any pool size.

    Each cell's insertion minimum compares the two via-terms (through
    the new link one way and the other) against the current entry in
    turn, so the scan branches only where a via-term improves the cell.
    That is bit-identical to [Float.min x (Float.min c1 c2)]: the two
    differ only on NaN and signed zeros, and no operand is either (every
    one is [infinity] or a sum of finite non-negative weights starting
    from [+0.0]), so equal values have equal bits whichever wins a tie.

    Each candidate scored in full scans n{^2} cells and bumps
    [augment.rescore_full]; each incremental delta bumps
    [augment.rescore_incremental] and adds the changed cells it visits
    to [augment.delta_cells]. *)

type pick = {
  u : int;
  v : int;
  total_after : float;   (** total aggregated bit-risk miles once added *)
  fraction : float;      (** [total_after / original total], <= 1 *)
}

val total_bit_risk :
  ?risk_trees:(int -> Rr_graph.Dijkstra.tree) -> Env.t -> float
(** Sum over ordered connected pairs of the minimum (mean-kappa) bit-risk
    miles — Eq. 4's objective for the current topology. *)

val candidates :
  ?max_candidates:int -> ?reduction_threshold:float ->
  ?dist_trees:(int -> Rr_graph.Dijkstra.tree) -> Env.t -> (int * int) list
(** The pruned candidate set [E_C], ranked by the bit-miles reduction of
    the endpoints (largest first) and truncated to [max_candidates]
    (default 400). [reduction_threshold] (default 0.5, the paper's value)
    keeps a non-edge only when the direct link is shorter than
    [threshold x] the current bit-miles between its endpoints. *)

val greedy :
  ?k:int -> ?max_candidates:int -> ?reduction_threshold:float ->
  ?dist_trees:(int -> Rr_graph.Dijkstra.tree) ->
  ?risk_trees:(int -> Rr_graph.Dijkstra.tree) -> Env.t ->
  pick list
(** The best [k] (default 1) additional links, greedily: the i-th pick is
    evaluated on the topology including picks 1..i-1. Returns fewer than
    [k] picks when candidates run out.

    The [*_trees] providers (see [Rr_engine.Context.dist_trees] /
    [risk_trees]) replace the initial all-pairs Dijkstra sweeps with
    cached trees; they must be bitwise-identical to fresh runs under the
    pure-miles and {!risk_arc_weight} arc weights respectively. Cached
    rows are never mutated — the greedy relaxation copies rows before
    improving them. *)
