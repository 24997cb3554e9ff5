(** OSPF/IS-IS link-weight export (Sec. 3.1: "create link weights that
    are a composite metric based on operational objectives and
    RiskRoute").

    Shortest-path-first protocols route on per-link integer costs, so the
    RiskRoute metric has to be flattened: the per-pair impact factor
    [kappa_ij] is replaced by the network mean, each directed node-risk
    term is split onto the link, and the result is quantised to the
    16-bit cost space. {!fidelity} measures how much of RiskRoute's
    behaviour survives the flattening. *)

val max_ospf_weight : int
(** 65535, the RFC 2328 cost ceiling. *)

val link_weights : ?max_weight:int -> Env.t -> int array
(** One weight per directed link, indexed like {!Env.arc_tgt} (both
    directions present), quantised so the largest weight hits
    [max_weight] (default {!max_ospf_weight}) and every weight is at
    least 1. *)

val spf_route : Env.t -> weights:int array -> src:int -> dst:int ->
  Router.route option
(** Route computed by a standard SPF over the exported integer weights
    (as returned by {!link_weights}), evaluated under the environment's
    true metrics. *)

type fidelity = {
  pairs : int;
  exact_match : float;    (** share of pairs whose SPF path IS the RiskRoute path *)
  risk_gap : float;       (** mean bit-risk-miles excess of SPF vs RiskRoute *)
}

val fidelity : ?pair_cap:int -> ?seed:int64 -> Env.t -> fidelity
(** Sampled comparison of OSPF-exported routing against exact per-pair
    RiskRoute. *)
