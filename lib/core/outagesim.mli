(** Monte Carlo outage simulation: does preemptive risk-averse routing
    actually keep traffic up when disasters strike?

    Strikes are sampled from the synthetic disaster models; every PoP
    within the damage radius fails. For a fixed sample of
    source/destination pairs we compare three routing postures:

    - {e static shortest}: the geographic shortest path was installed and
      cannot change — the pair survives only if no PoP on it failed;
    - {e static riskroute}: the RiskRoute path was installed instead;
    - {e reactive}: routing reconverges after the failure (upper bound) —
      the pair survives if any path remains. One connectivity labelling
      per strike answers this for every pair.

    The gap between the first two is the operational value of RiskRoute's
    preemptive avoidance; the third shows how much headroom reactive
    recovery has on top. *)

type scenario = {
  center : Rr_geo.Coord.t;
  radius_miles : float;
  failed_pops : int list;
}

type result = {
  scenarios : int;
  pairs : int;              (** traffic pairs evaluated per scenario *)
  shortest_survival : float;   (** mean fraction of pairs whose static shortest path survived *)
  riskroute_survival : float;  (** same for static RiskRoute paths *)
  reactive_survival : float;   (** same with post-failure reconvergence *)
  endpoint_loss : float;
      (** mean fraction of pairs whose source or destination PoP itself
          failed (no routing can save those) *)
}

val sample_scenarios :
  ?rng:Rr_util.Prng.t -> ?radius_miles:float -> ?probabilistic:bool ->
  kind:Rr_disaster.Event.kind -> count:int -> Env.t -> scenario list
(** Draw disaster strikes and resolve the failed PoPs of the
    environment. Scenarios that fail no PoP are kept (they measure the
    quiet baseline). With [probabilistic] (default false) each PoP fails
    with probability [exp (-(d/r)^2)] instead of deterministically inside
    the radius — the probabilistic geographic failure model of Agarwal et
    al. (the paper's reference [20]). Raises [Invalid_argument] when
    [count <= 0] or [radius_miles] is not a positive finite number.

    A deterministic strike's failed set is [{v | Distance.miles center
    coords.(v) <= radius_miles}], in increasing [v]; the probabilistic
    model draws from [rng] once per PoP within three radii, in
    increasing [v], right after the strike's centre. Both resolve a
    strike through its {!Rr_geo.Distance.disk_window} of the reach
    where a PoP can fail (the radius, or three radii), the same
    conservative window the forecast diff uses: a PoP outside it is
    beyond that reach, so it costs two compares, and only the PoPs
    inside it pay a great-circle distance. The failed sets and the
    draws are those a distance per PoP gives. The
    [outagesim.distances_evaluated] counter records the great-circle
    distances evaluated. *)

val strike_labels : Env.t -> failed:bool array -> int array
(** The reactive posture of one strike, for every pair at once: the
    {!Rr_graph.Component.labels} of the environment's CSR arcs with
    every PoP [v] with [failed.(v)] removed ([failed] has one entry per
    PoP). A pair survives reactive rerouting exactly when
    [label.(src) = label.(dst) >= 0] — the answer a per-pair search that
    weighs every arc into a failed PoP as [infinity] gives. Bumps the
    [outagesim.labelings] counter once per call. *)

(** {1 Static routes under a strike} *)

type static_route = int * int * Router.route option * Router.route option
(** A pair [(src, dst)] with its shortest and RiskRoute routes, installed
    before any strike. *)

type route_index
(** Each PoP's static routes: route [2 i] is pair [i]'s shortest route,
    [2 i + 1] its RiskRoute route. *)

val route_index : int -> static_route array -> route_index
(** [route_index n static] indexes the routes of [static] by the PoPs
    (of [n]) they pass through. *)

val routes_down : route_index -> routes:int -> int list -> Bytes.t
(** [routes_down index ~routes failed_pops] marks ['\001'] every route
    through a failed PoP and ['\000'] the others, of [routes] route ids.
    A strike thus touches only its failed PoPs' routes instead of
    walking every path; a route is down exactly when one of its PoPs
    failed. *)

val run :
  ?rng:Rr_util.Prng.t -> ?scenario_count:int -> ?pair_cap:int ->
  ?radius_miles:float -> ?kind:Rr_disaster.Event.kind -> Env.t -> result
(** Full simulation (defaults: 200 hurricane-kind scenarios, 200 pairs,
    80-mile damage radius). Each strike that fails at least one PoP is
    labelled once with {!strike_labels}, and every pair's reactive
    posture is one label comparison; the result is bitwise equal to a
    masked single-pair search per (strike, pair).

    A quiet strike (one that fails no PoP) counts every pair as a
    reactive survivor without looking at the topology, so on a
    disconnected network a pair that had no path before the strike
    still survives it; a strike that fails any PoP counts such a pair
    as lost. Raises [Invalid_argument] on the inputs
    {!sample_scenarios} rejects. *)
