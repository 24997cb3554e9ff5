(** Route provenance: why a RiskRoute answer is what it is.

    Given an engine context and a pair, produce a structured record that
    decomposes Eq. 1 per arc into its [{miles, kappa, lambda_h * o_h,
    lambda_f * o_f}] ingredients, rolls them up per route, ranks the
    risk-contributing PoPs and arcs, tells the "risk detour" story
    against the shortest-miles baseline, and attaches computation
    provenance (content fingerprints, cache traffic, query runner and
    settled counts).

    The decomposition is {e exact}: every per-arc value replays the
    engine's own float expressions (see {!Riskroute.Metric.term}), so
    the left fold of arc weights equals the engine's bit-risk-mile
    total bit-for-bit — at any pool size, since routing is
    deterministic. [side.exact] re-checks the invariant on every
    explained route.

    Explain traffic records [explain.requests] / [explain.errors]
    counters and an [explain.seconds] histogram, and each computation
    runs under an ["explain.route"] span, so the new path feeds every
    existing sink (Prometheus, series, flight). *)

type arc = {
  tail : int;
  head : int;
  tail_name : string;
  head_name : string;
  miles : float;  (** [d(tail, head)] *)
  hist : float;  (** [lambda_h * risk_scale * o_h(head)] *)
  fcst : float;  (** [lambda_f * o_f(head)] *)
  weight : float;
      (** [miles + kappa * (hist + fcst)] — bitwise the arc weight the
          query kernel accumulated *)
}

type side = {
  label : string;  (** ["riskroute"] or ["shortest"] *)
  path : int list;
  names : string list;  (** PoP names along [path] *)
  arcs : arc list;  (** one per hop, in path order *)
  bit_miles : float;
  bit_risk_miles : float;  (** the engine's total for this path *)
  term_sum : float;  (** left fold of [arc.weight] — must equal it *)
  exact : bool;  (** [term_sum] = [bit_risk_miles] bit-for-bit *)
  hist_contribution : float;  (** sum of [kappa * hist] over arcs *)
  fcst_contribution : float;  (** sum of [kappa * fcst] over arcs *)
  runner : string;
      (** ["plain"] up to 1,024 PoPs, ["alt"] above
          ({!Rr_graph.Query.choose}) *)
  settled : int;  (** nodes settled answering this side's query *)
}

type diff = {
  diverted : bool;  (** the two paths differ *)
  extra_miles : float;  (** riskroute minus shortest bit-miles *)
  extra_hops : int;
  risk_avoided : float;  (** shortest minus riskroute risk contribution *)
  hist_avoided : float;
  fcst_avoided : float;
  bit_risk_delta : float;  (** shortest minus riskroute bit-risk miles *)
}

type contributor = {
  node : int;
  name : string;
  risk : float;  (** summed [kappa * (hist + fcst)] charged to this PoP *)
}

type t = {
  net : string;
  nodes : int;
  src : int;
  dst : int;
  src_name : string;
  dst_name : string;
  params : Riskroute.Params.t;
  advisory : string option;  (** e.g. ["SANDY advisory 20"] *)
  impact_src : float;
  impact_dst : float;
  kappa : float;
  riskroute : side;
  shortest : side;
  diff : diff;
  top_pops : contributor list;  (** descending risk, ties by id *)
  top_arcs : arc list;  (** descending [kappa * (hist + fcst)] *)
  fingerprints : (string * string) list;
      (** [params] / [advisory] / [geometry] / [risk] content digests,
          read through {!Rr_engine.Context.geometry_fp} /
          {!Rr_engine.Context.risk_fp}: the tree-cache keys, so an
          environment {!Rr_engine.Context.patched_env} registered
          reports its chained risk fingerprint *)
  cache_before : (string * int) list;
      (** {!Rr_engine.Context.stats_fields} sampled before the
          computation; the delta against [cache_after] is the cache
          hit/miss evidence *)
  cache_after : (string * int) list;
  domains : int;  (** resolved {!Rr_util.Parallel} pool size *)
}

val schema_version : int
(** Version of the JSON document {!to_json} emits (1). *)

val explain :
  ?params:Riskroute.Params.t ->
  ?advisory:Rr_forecast.Advisory.t ->
  ?top_k:int ->
  Rr_engine.Context.t ->
  Rr_topology.Net.t ->
  src:int ->
  dst:int ->
  (t, string) result
(** Explain one pair through the environment {!Rr_engine.Context.env}
    caches — continental nets' ALT landmark trees come from the tree
    LRU — so a repeated query costs its searches and its path, not the
    network. [top_k] bounds [top_pops] / [top_arcs] (default 5). Errors
    on out-of-range ids or a disconnected pair. *)

val explain_continental :
  ?params:Riskroute.Params.t ->
  ?top_k:int ->
  Rr_engine.Context.t ->
  pops:int ->
  src:int ->
  dst:int ->
  (t, string) result
(** [explain] on the synthetic continental-[pops] topology
    ({!Rr_engine.Context.continental}). Its environment takes
    {!Rr_topology.Net.population_fractions} as impact and has no
    forecast, so the forecast term is identically zero. *)

val max_continental_pops : int
(** 50,000: the largest [continental-<pops>] a name may select. *)

val continental_pops : string -> (int option, string) result
(** [Ok (Some pops)] for a [continental-<pops>] name with
    [1 <= pops <= max_continental_pops] (case-insensitive prefix),
    [Ok None] for any other name, and [Error] naming the supported range
    for a [continental-<digits>] size outside it — outside input must
    not build (and cache) an arbitrarily large topology. *)

val explain_named :
  ?lambda_h:float ->
  ?storm:string ->
  ?tick:int ->
  ?top_k:int ->
  Rr_engine.Context.t ->
  net:string ->
  src:string ->
  dst:string ->
  (t, string) result
(** Name-based front door shared by the CLI subcommand and the live
    endpoint: [net] is a corpus name or [continental-<pops>] (see
    {!continental_pops}); [src] / [dst] are PoP city names or numeric
    ids; [storm] ([irene] / [katrina] / [sandy]) overlays the advisory
    at [tick] (default 40, corpus networks only). *)

val to_json : t -> string
(** Schema-{!schema_version} JSON. Floats are printed with [%.17g]
    ({!Rr_util.Float_text.add_g17}, byte for byte [Printf]'s; a
    non-finite value prints [0.0]), so every value round-trips exactly
    and external consumers can verify the decomposition bit-for-bit. *)

val of_query : Rr_engine.Context.t -> (string * string) list -> (string, string) result
(** The [/explain] provider body: decoded query parameters ([net] /
    [src] / [dst], optional [lambda_h] / [storm] / [tick]) to the JSON
    document, or a client-error message. Register with
    [Rr_live.set_explain_provider (of_query ctx)]. *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering: per-arc tables for both routes, the risk
    detour summary, top contributors, and the provenance block. *)
