(** Bit-risk miles (Definition 1 / Eq. 1).

    For a path [p = p1 ... pK] between nodes [i = p1] and [j = pK]:
    [r_ij(p) = sum_{x=2..K} (d(p_x, p_{x-1})
               + kappa_ij * (lambda_h * o_h(p_x) + lambda_f * o_f(p_x)))].

    Every hop of a path must be an arc of the environment's graph: hop
    miles [d] are read from {!Env.arc_miles} (bitwise {!Env.link_miles}
    of the hop's endpoints), and a hop that is not an arc raises
    [Invalid_argument]. {!path_risk} reads node risks only and accepts
    any node sequence. *)

val bit_miles : Env.t -> int list -> float
(** Geographic length of a node path (the Level-3 "bit-miles"): the
    left fold of {!Env.arc_miles} along it, bitwise the cost
    {!Rr_graph.Dijkstra.path_cost} computes under that weight. *)

val bit_risk_miles : Env.t -> int list -> float
(** Eq. 1 on a node path; [kappa_ij] is taken from the path's endpoints.
    Returns 0 for paths shorter than two nodes. *)

val bit_risk_miles_kappa : Env.t -> kappa:float -> int list -> float
(** Eq. 1 with an explicit impact factor (pair-independent analyses):
    the left fold of [arc_miles k +. kappa *. arc_risk k] along the
    path, the weight the routers search under. *)

val path_risk : Env.t -> int list -> float
(** The pure risk term [sum_{x=2..K} node_risk(p_x)] (unscaled by
    kappa). *)

(** {1 Term-level evaluation}

    Eq. 1 broken into its per-arc ingredients for attribution. The
    decomposition is exact: [term_weight ~kappa t] is bitwise equal to
    {!Env.edge_weight} on the same arc, and [terms_total ~kappa (terms
    env p)] is bitwise equal to {!bit_risk_miles_kappa} (both are the
    same left fold over the same per-arc values). *)

type term = {
  tail : int;  (** arc tail [p_{x-1}] *)
  head : int;  (** arc head [p_x] — the node whose risk is charged *)
  miles : float;  (** [d(p_x, p_{x-1})] *)
  hist : float;  (** [lambda_h * risk_scale * o_h(p_x)] *)
  fcst : float;  (** [lambda_f * o_f(p_x)] *)
}

val term : Env.t -> int -> int -> term
(** The decomposed weight of one directed arc; raises
    [Invalid_argument] when [(tail, head)] is not an arc. *)

val terms : Env.t -> int list -> term list
(** One term per hop of a node path, in path order. *)

val term_weight : kappa:float -> term -> float
(** [miles + kappa * (hist + fcst)] — bitwise {!Env.edge_weight}. *)

val terms_total : kappa:float -> term list -> float
(** Left fold of {!term_weight} from 0 — bitwise
    {!bit_risk_miles_kappa} when applied to [terms env path]. *)
