(** Backup-route computation (Sec. 3.1: "RiskRoute fits very nicely into
    the IP Fast Reroute framework by offering an algorithm for
    backup/repair path calculation").

    For a primary RiskRoute path, pre-compute a repair path for every
    single-link and single-node failure along it, each repair again
    minimising bit-risk miles on the surviving topology. *)

type repair = {
  failed_link : (int * int) option;  (** the failed primary link, or *)
  failed_node : int option;          (** the failed intermediate node *)
  route : Router.route option;       (** [None] when the failure partitions src/dst *)
}

type plan = {
  primary : Router.route;
  repairs : repair list;  (** one per primary link, then one per intermediate node *)
}

val plan : Env.t -> src:int -> dst:int -> plan option
(** [None] when src and dst are disconnected to begin with. *)

val coverage : plan -> float
(** Fraction of single failures for which a repair path exists. *)

val worst_stretch : plan -> float
(** Largest [repair bit-miles / primary bit-miles] over covered failures
    (1.0 when there are none). *)

val route_avoiding :
  Env.t -> src:int -> dst:int -> banned_links:(int * int) list ->
  banned_nodes:int list -> Router.route option
(** The underlying primitive: minimum bit-risk route that avoids the
    given links (either direction) and nodes — the route
    {!Router.riskroute} finds once those links and every edge of those
    nodes are removed. Banned links that are not in the graph are
    ignored. *)
