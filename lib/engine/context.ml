type stats = {
  env_hits : int;
  env_misses : int;
  env_patched : int;
  tree_hits : int;
  tree_misses : int;
  tree_evictions : int;
  settled_nodes : int;
  delta_patched_arcs : int;
  delta_trees_kept : int;
  delta_trees_repaired : int;
  delta_trees_evicted : int;
}

type t = {
  zoo : Rr_topology.Zoo.t;
  uses_shared_zoo : bool;
  riskmap : Rr_disaster.Riskmap.t Lazy.t;
  catalog : Rr_disaster.Catalog.t Lazy.t;
  blocks : Rr_census.Block.t array Lazy.t;
  lock : Mutex.t;
  envs : Riskroute.Env.t Lru.t;
  trees : Rr_graph.Dijkstra.tree Lru.t;
  (* Fingerprint memos, keyed by physical identity: zoo networks and the
     geometry arrays shared by [Env.with_advisory] / [with_params]
     derivatives are long-lived, so a short bounded assoc list suffices. *)
  mutable net_memo : (Rr_topology.Net.t * string) list;
  mutable geo_memo : (float array * string) list;
  mutable risk_memo : (Riskroute.Env.t * string) list;
  mutable query_memo : (Rr_topology.Net.t * Rr_graph.Query.t) list;
  mutable continentals : (int * Rr_topology.Net.t) list;
  mutable interdomain : (Riskroute.Interdomain.t * Riskroute.Env.t) option;
  mutable env_hits : int;
  mutable env_misses : int;
  mutable env_patched : int;
  mutable tree_hits : int;
  mutable tree_misses : int;
  mutable tree_evictions : int;
  mutable settled_nodes : int;
  mutable delta_patched_arcs : int;
  mutable delta_trees_kept : int;
  mutable delta_trees_repaired : int;
  mutable delta_trees_evicted : int;
}

let c_env_hit = Rr_obs.Counter.make "engine.cache.env_hit"
let c_env_miss = Rr_obs.Counter.make "engine.cache.env_miss"
let c_tree_hit = Rr_obs.Counter.make "engine.cache.tree_hit"
let c_tree_miss = Rr_obs.Counter.make "engine.cache.tree_miss"
let c_env_evict = Rr_obs.Counter.make "engine.cache.env_evictions"
let c_tree_evict = Rr_obs.Counter.make "engine.cache.tree_evictions"
let c_settled = Rr_obs.Counter.make "engine.tree_settled_nodes"
let c_delta_envs = Rr_obs.Counter.make "engine.delta.patched_envs"
let c_delta_arcs = Rr_obs.Counter.make "engine.delta.patched_arcs"
let c_delta_kept = Rr_obs.Counter.make "engine.delta.trees_kept"
let c_delta_repaired = Rr_obs.Counter.make "engine.delta.trees_repaired"
let c_delta_evicted = Rr_obs.Counter.make "engine.delta.trees_evicted"

let default_tree_cache_cap = 4096

let env_cache_cap = 256

let tree_cache_cap_from_env () =
  match Rr_obs.Envvar.(raw tree_cache) with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 0 -> Some n
    | _ -> None)

let default_repair_frontier = 0.25

(* Fraction of the node count above which an incremental tree repair is
   not worth attempting (the fresh run would settle about as much);
   silently keeps the default on malformed values, like the cache knob. *)
let repair_frontier_fraction =
  lazy
    (match Rr_obs.Envvar.(trimmed repair_frontier) with
    | None -> default_repair_frontier
    | Some s -> (
      match float_of_string_opt s with
      | Some f when f > 0.0 && f <= 1.0 -> f
      | _ -> default_repair_frontier))

let create ?zoo ?tree_cache_cap () =
  let uses_shared_zoo = Option.is_none zoo in
  let zoo = match zoo with Some z -> z | None -> Rr_topology.Zoo.shared () in
  let cap =
    match tree_cache_cap with
    | Some c ->
      if c < 0 then invalid_arg "Context.create: negative tree_cache_cap";
      c
    | None -> Option.value (tree_cache_cap_from_env ()) ~default:default_tree_cache_cap
  in
  {
    zoo;
    uses_shared_zoo;
    riskmap = lazy (Rr_disaster.Riskmap.shared ());
    catalog = lazy (Rr_disaster.Catalog.shared ());
    blocks = lazy (Rr_census.Synthetic.shared ());
    lock = Mutex.create ();
    envs = Lru.create ~capacity:env_cache_cap;
    trees = Lru.create ~capacity:cap;
    net_memo = [];
    geo_memo = [];
    risk_memo = [];
    query_memo = [];
    continentals = [];
    interdomain = None;
    env_hits = 0;
    env_misses = 0;
    env_patched = 0;
    tree_hits = 0;
    tree_misses = 0;
    tree_evictions = 0;
    settled_nodes = 0;
    delta_patched_arcs = 0;
    delta_trees_kept = 0;
    delta_trees_repaired = 0;
    delta_trees_evicted = 0;
  }

let shared_ctx = lazy (create ())
let shared () = Lazy.force shared_ctx

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let zoo t = t.zoo
let riskmap t = Lazy.force t.riskmap
let catalog t = Lazy.force t.catalog
let census_blocks t = Lazy.force t.blocks

let net t name = Rr_topology.Zoo.find t.zoo name

let require_net t name =
  match net t name with
  | Some n -> n
  | None ->
    let known =
      List.map
        (fun (n : Rr_topology.Net.t) -> n.name)
        (Rr_topology.Zoo.all_nets t.zoo)
    in
    failwith
      (Printf.sprintf "unknown network %S (try: %s)" name
         (String.concat ", " known))

let nets t (selection : Spec.networks) =
  match selection with
  | Spec.Tier1s -> t.zoo.tier1s
  | Spec.Regionals -> t.zoo.regionals
  | Spec.All_networks -> Rr_topology.Zoo.all_nets t.zoo
  | Spec.Named names -> List.map (require_net t) names
  | Spec.Interdomain ->
    invalid_arg "Context.nets: Interdomain selects the merged graph"

let memo_cap = 64

let bounded_memo_add memo entry =
  let memo = entry :: memo in
  if List.length memo > memo_cap then List.filteri (fun i _ -> i < memo_cap) memo
  else memo

let net_fp t n =
  match with_lock t (fun () -> List.find_opt (fun (m, _) -> m == n) t.net_memo) with
  | Some (_, fp) -> fp
  | None ->
    let fp = Fingerprint.net n in
    with_lock t (fun () -> t.net_memo <- bounded_memo_add t.net_memo (n, fp));
    fp

let geometry_fp t env_ =
  let miles = Riskroute.Env.arc_miles env_ in
  match
    with_lock t (fun () -> List.find_opt (fun (m, _) -> m == miles) t.geo_memo)
  with
  | Some (_, fp) -> fp
  | None ->
    let fp = Fingerprint.env_geometry env_ in
    with_lock t (fun () -> t.geo_memo <- bounded_memo_add t.geo_memo (miles, fp));
    fp

let risk_fp t env_ =
  match
    with_lock t (fun () -> List.find_opt (fun (e, _) -> e == env_) t.risk_memo)
  with
  | Some (_, fp) -> fp
  | None ->
    let fp = Fingerprint.env_risk env_ in
    with_lock t (fun () -> t.risk_memo <- bounded_memo_add t.risk_memo (env_, fp));
    fp

let env_key t n params advisory =
  Fingerprint.combine
    [ net_fp t n; Fingerprint.params params; Fingerprint.advisory advisory ]

let find_env t key =
  match
    with_lock t (fun () ->
        match Lru.find t.envs key with
        | Some e ->
          t.env_hits <- t.env_hits + 1;
          Some e
        | None -> None)
  with
  | Some _ as hit ->
    Rr_obs.Counter.incr c_env_hit;
    hit
  | None -> None

let record_evictions counter ~name evicted =
  if evicted > 0 then begin
    Rr_obs.Counter.add counter evicted;
    Rr_obs.Flight.record ~kind:"evict" ~name
      ~detail:(Printf.sprintf "evicted=%d" evicted) ()
  end

(* Registers [e] under [key] and returns the cached value with the
   number of LRU evictions; [update] runs under the same lock. A
   concurrent build of the same key may have won: results identical. *)
let register_env t key e ~update =
  let e, evicted =
    with_lock t (fun () ->
        update ();
        match Lru.find t.envs key with
        | Some existing -> (existing, 0)
        | None -> (e, Lru.add t.envs key e))
  in
  record_evictions c_env_evict ~name:"engine.env_lru" evicted;
  e

(* Continental nets are synthetic: population fractions are the impact
   model (the census join is both slow and meaningless there), for every
   net [continental] built and for any net above this many PoPs — which
   also covers continental nets built by another context, so a fresh
   context asked for one neither runs a census join nor gets another
   kappa. The corpus's largest net has 233 PoPs. *)
let population_impact_above = 1024

let env ?(params = Riskroute.Params.default) ?advisory t n =
  let key = env_key t n params advisory in
  match find_env t key with
  | Some e -> e
  | None ->
    let built =
      let impact =
        if
          Rr_topology.Net.pop_count n > population_impact_above
          || with_lock t (fun () ->
                 List.exists (fun (_, m) -> m == n) t.continentals)
        then Some (Rr_topology.Net.population_fractions n)
        else None
      in
      Riskroute.Env.of_net ~params ~riskmap:(riskmap t) ?impact ?advisory n
    in
    Rr_obs.Counter.incr c_env_miss;
    register_env t key built ~update:(fun () ->
        t.env_misses <- t.env_misses + 1)

let interdomain t =
  match with_lock t (fun () -> t.interdomain) with
  | Some v -> v
  | None ->
    let v =
      if t.uses_shared_zoo then Riskroute.Interdomain.shared ()
      else
        let merged = Riskroute.Interdomain.merge t.zoo.peering in
        (merged, Riskroute.Interdomain.env ~riskmap:(riskmap t) merged)
    in
    with_lock t (fun () ->
        match t.interdomain with
        | Some v -> v
        | None ->
          t.interdomain <- Some v;
          v)

let count_settled (tr : Rr_graph.Dijkstra.tree) =
  Array.fold_left (fun acc d -> if d < infinity then acc + 1 else acc) 0 tr.dist

let cached_tree t ~key ~compute =
  match
    with_lock t (fun () ->
        match Lru.find t.trees key with
        | Some tr ->
          t.tree_hits <- t.tree_hits + 1;
          Some tr
        | None -> None)
  with
  | Some tr ->
    Rr_obs.Counter.incr c_tree_hit;
    tr
  | None ->
    let tr = compute () in
    let settled = count_settled tr in
    Rr_obs.Counter.incr c_tree_miss;
    Rr_obs.Counter.add c_settled settled;
    let evicted = ref 0 in
    let result =
      with_lock t (fun () ->
          t.tree_misses <- t.tree_misses + 1;
          t.settled_nodes <- t.settled_nodes + settled;
          match Lru.find t.trees key with
          | Some existing -> existing
          | None ->
            let ev = Lru.add t.trees key tr in
            t.tree_evictions <- t.tree_evictions + ev;
            evicted := ev;
            tr)
    in
    record_evictions c_tree_evict ~name:"engine.tree_lru" !evicted;
    result

let dist_trees t env_ =
  let fp = geometry_fp t env_ in
  let n = Riskroute.Env.node_count env_ in
  let off = Riskroute.Env.arc_off env_ and tgt = Riskroute.Env.arc_tgt env_ in
  let weight = Rr_graph.Dijkstra.Miles (Riskroute.Env.arc_miles env_) in
  fun src ->
    cached_tree t
      ~key:(fp ^ ":d:" ^ string_of_int src)
      ~compute:(fun () ->
        Rr_graph.Dijkstra.single_source_flat ~n ~off ~tgt ~weight ~src)

let risk_trees t env_ =
  let fp = risk_fp t env_ in
  let n = Riskroute.Env.node_count env_ in
  let off = Riskroute.Env.arc_off env_ and tgt = Riskroute.Env.arc_tgt env_ in
  let weight =
    Riskroute.Env.eq1_weight env_ ~kappa:(Riskroute.Env.mean_kappa env_)
  in
  fun src ->
    cached_tree t
      ~key:(fp ^ ":r:" ^ string_of_int src)
      ~compute:(fun () ->
        Rr_graph.Dijkstra.single_source_flat ~n ~off ~tgt ~weight ~src)

(* --- Delta-aware advisory stepping ----------------------------------

   [patched_env] is the incremental twin of [env]: instead of building
   the (net, params, advisory) environment from scratch it diffs the new
   advisory's risk field against the parent environment's, patches the
   parent ([Env.patch]), and migrates the parent's cached risk trees to
   the child's namespace — kept verbatim when the delta changes no arc,
   all repaired in place ([Dijkstra.repair]) otherwise. The child
   is registered under the same content-addressed key a from-scratch
   build would use, so both paths unify in the env cache; its risk
   fingerprint chains (parent fingerprint + delta fingerprint,
   [Fingerprint.risk_delta]) at O(changed) cost. *)

let risk_prefix fp = fp ^ ":r:"

let trees_with_prefix t prefix =
  let plen = String.length prefix in
  Lru.fold t.trees ~init:[] ~f:(fun acc k tr ->
      if String.length k > plen && String.starts_with ~prefix k then
        (int_of_string (String.sub k plen (String.length k - plen)), k, tr)
        :: acc
      else acc)

let patched_env ?advisory t n ~parent =
  let params = Riskroute.Env.params parent in
  if Riskroute.Env.node_count parent <> Rr_topology.Net.pop_count n then
    invalid_arg "Context.patched_env: parent/network node-count mismatch";
  let key = env_key t n params advisory in
  match find_env t key with
  | Some e -> e
  | None ->
    let d =
      Rr_forecast.Riskfield.diff_field
        ~rho_tropical:params.Riskroute.Params.rho_tropical
        ~rho_hurricane:params.Riskroute.Params.rho_hurricane
        ~old_field:(Riskroute.Env.forecast parent)
        ~next:advisory
        (Riskroute.Env.coords parent)
    in
    let p = Riskroute.Env.patch parent ~indices:d.indices ~values:d.values in
    let child = p.Riskroute.Env.env in
    let arcs = p.Riskroute.Env.patched_arcs in
    let parent_rfp = risk_fp t parent in
    let kept = ref 0 and repaired = ref 0 and evicted = ref 0 in
    let settled = ref 0 and lru_evicted = ref 0 in
    if Array.length arcs = 0 then begin
      (* The risk vectors are bit-for-bit unchanged (offshore tick, or a
         forecast move that cancels in node_risk): every cached tree for
         the parent stays valid under its existing key — including when
         the child IS the parent physically. *)
      with_lock t (fun () ->
          kept := List.length (trees_with_prefix t (risk_prefix parent_rfp));
          if not (child == parent) then
            t.risk_memo <- bounded_memo_add t.risk_memo (child, parent_rfp))
    end
    else begin
      let child_rfp =
        Fingerprint.risk_delta ~parent:parent_rfp ~indices:d.indices
          ~values:d.values
      in
      with_lock t (fun () ->
          t.risk_memo <- bounded_memo_add t.risk_memo (child, child_rfp));
      let n_nodes = Riskroute.Env.node_count parent in
      let off = Riskroute.Env.arc_off parent
      and tgt = Riskroute.Env.arc_tgt parent
      and mate = Riskroute.Env.arc_mate parent in
      let kappa = Riskroute.Env.mean_kappa parent in
      let w_old = Riskroute.Env.eq1_weight parent ~kappa in
      let w_new = Riskroute.Env.eq1_weight child ~kappa in
      let frontier_limit =
        max 1
          (int_of_float
             (Lazy.force repair_frontier_fraction *. float_of_int n_nodes))
      in
      let candidates =
        Array.of_list
          (with_lock t (fun () -> trees_with_prefix t (risk_prefix parent_rfp)))
      in
      Rr_obs.with_span "engine.migrate" (fun () ->
          (* Every cached tree is repaired: on a connected net a changed
             tick leaves a tree untouched only when the changed PoP is
             its root, and a repair with nothing dirty returns the same
             values. The repairs run as one pool batch, one task per
             tree, each writing its own slot; they read only immutable
             env arrays and cached trees, and their marks and heap are
             domain-local scratch. *)
          let m = Array.length candidates in
          let slots = Array.make m None in
          Rr_util.Parallel.parallel_for ~chunks:m m (fun i ->
              let src, _, tr = candidates.(i) in
              slots.(i) <-
                Some
                  (Rr_graph.Dijkstra.repair ~n:n_nodes ~off ~tgt ~mate
                     ~weight:w_new ~old_weight:w_old ~changed:arcs
                     ~frontier_limit tr ~src));
          (* Results land in candidate order on this domain, so the
             tallies and the LRU's recency do not depend on the pool
             size. *)
          with_lock t (fun () ->
              Array.iteri
                (fun i (src, old_key, _) ->
                  let tr', rs = Option.get slots.(i) in
                  settled := !settled + rs.Rr_graph.Dijkstra.settled;
                  if rs.Rr_graph.Dijkstra.full then incr evicted
                  else incr repaired;
                  ignore (Lru.remove t.trees old_key);
                  let ev =
                    Lru.add t.trees (risk_prefix child_rfp ^ string_of_int src)
                      tr'
                  in
                  t.tree_evictions <- t.tree_evictions + ev;
                  lru_evicted := !lru_evicted + ev)
                candidates))
    end;
    Rr_obs.Counter.incr c_delta_envs;
    Rr_obs.Counter.add c_delta_arcs (Array.length arcs);
    Rr_obs.Counter.add c_delta_kept !kept;
    Rr_obs.Counter.add c_delta_repaired !repaired;
    Rr_obs.Counter.add c_delta_evicted !evicted;
    if !settled > 0 then Rr_obs.Counter.add c_settled !settled;
    if !lru_evicted > 0 then Rr_obs.Counter.add c_tree_evict !lru_evicted;
    Rr_obs.Flight.record ~kind:"delta" ~name:"engine.patched_env"
      ~detail:
        (Printf.sprintf "arcs=%d kept=%d repaired=%d evicted=%d"
           (Array.length arcs) !kept !repaired !evicted)
      ();
    register_env t key child ~update:(fun () ->
        t.env_patched <- t.env_patched + 1;
        t.delta_patched_arcs <- t.delta_patched_arcs + Array.length arcs;
        t.delta_trees_kept <- t.delta_trees_kept + !kept;
        t.delta_trees_repaired <- t.delta_trees_repaired + !repaired;
        t.delta_trees_evicted <- t.delta_trees_evicted + !evicted;
        t.settled_nodes <- t.settled_nodes + !settled)

(* Wire an environment's query facade to the tree LRU: landmark
   distance trees then live alongside every other cached tree for the
   same geometry, so advisory ticks (which share the parent env's
   geometry and facade) reuse them for free. *)
let query t env_ =
  let q = Riskroute.Env.query env_ in
  Rr_graph.Query.set_tree_provider q (dist_trees t env_);
  q

(* Env-free facade for a network's geometry: [Env.csr_arcs] is the
   builder every Env uses, so the arcs, the geometry fingerprint and the
   tree-cache namespace (landmark trees included) unify with any Env
   built over the same net. *)
let build_net_query t (net : Rr_topology.Net.t) =
  let n = Rr_topology.Net.pop_count net in
  let coords =
    Array.map (fun (p : Rr_topology.Pop.t) -> p.Rr_topology.Pop.coord)
      net.Rr_topology.Net.pops
  in
  let off, tgt, _, miles =
    Riskroute.Env.csr_arcs net.Rr_topology.Net.graph coords
  in
  let q = Rr_graph.Query.create ~n ~off ~tgt ~miles () in
  let fp = Fingerprint.geometry ~n ~off ~tgt ~miles in
  Rr_graph.Query.set_tree_provider q (fun src ->
      cached_tree t
        ~key:(fp ^ ":d:" ^ string_of_int src)
        ~compute:(fun () ->
          Rr_graph.Dijkstra.single_source_flat ~n ~off ~tgt
            ~weight:(Rr_graph.Dijkstra.Miles miles) ~src));
  q

let net_query t net =
  match
    with_lock t (fun () ->
        List.find_opt (fun (m, _) -> m == net) t.query_memo)
  with
  | Some (_, q) -> q
  | None ->
    let q = build_net_query t net in
    with_lock t (fun () ->
        match List.find_opt (fun (m, _) -> m == net) t.query_memo with
        | Some (_, existing) -> existing
        | None ->
          t.query_memo <- bounded_memo_add t.query_memo (net, q);
          q)

let continental ?spec t ~pops =
  match with_lock t (fun () -> List.assoc_opt pops t.continentals) with
  | Some net -> net
  | None ->
    let spec =
      match spec with
      | Some s -> s
      | None ->
        Rr_topology.Builder.continental_defaults
          ~name:(Printf.sprintf "continental-%d" pops)
          ~pop_count:pops
    in
    let net =
      Rr_topology.Builder.continental
        ~rng:(Rr_util.Prng.create Rr_topology.Zoo.default_seed)
        spec
    in
    with_lock t (fun () ->
        match List.assoc_opt pops t.continentals with
        | Some existing -> existing
        | None ->
          t.continentals <- (pops, net) :: t.continentals;
          net)

let snapshot t =
  {
    env_hits = t.env_hits;
    env_misses = t.env_misses;
    env_patched = t.env_patched;
    tree_hits = t.tree_hits;
    tree_misses = t.tree_misses;
    tree_evictions = t.tree_evictions;
    settled_nodes = t.settled_nodes;
    delta_patched_arcs = t.delta_patched_arcs;
    delta_trees_kept = t.delta_trees_kept;
    delta_trees_repaired = t.delta_trees_repaired;
    delta_trees_evicted = t.delta_trees_evicted;
  }

let stats t = with_lock t (fun () -> snapshot t)

(* One locked read feeds both the JSON body below and the time-series
   sampler's stats section (Rr_obs.Series.set_stats_provider): flat
   (name, value) pairs in a fixed order. *)
let stats_fields t =
  let s, env_len, tree_len =
    with_lock t (fun () -> (snapshot t, Lru.length t.envs, Lru.length t.trees))
  in
  [
    ("env.hits", s.env_hits);
    ("env.misses", s.env_misses);
    ("env.patched", s.env_patched);
    ("env.cache_length", env_len);
    ("tree.hits", s.tree_hits);
    ("tree.misses", s.tree_misses);
    ("tree.evictions", s.tree_evictions);
    ("tree.cache_length", tree_len);
    ("tree.cache_capacity", Lru.capacity t.trees);
    ("tree.settled_nodes", s.settled_nodes);
    ("delta.patched_arcs", s.delta_patched_arcs);
    ("delta.trees_kept", s.delta_trees_kept);
    ("delta.trees_repaired", s.delta_trees_repaired);
    ("delta.trees_evicted", s.delta_trees_evicted);
  ]

let stats_json t =
  let f = stats_fields t in
  let g k = List.assoc k f in
  Printf.sprintf
    "{\n\
    \  \"schema\": 2,\n\
    \  \"env\": {\"hits\": %d, \"misses\": %d, \"patched\": %d, \
     \"cache_length\": %d},\n\
    \  \"tree\": {\"hits\": %d, \"misses\": %d, \"evictions\": %d, \
     \"cache_length\": %d, \"cache_capacity\": %d, \"settled_nodes\": %d},\n\
    \  \"delta\": {\"patched_arcs\": %d, \"trees_kept\": %d, \
     \"trees_repaired\": %d, \"trees_evicted\": %d}\n\
     }\n"
    (g "env.hits") (g "env.misses") (g "env.patched") (g "env.cache_length")
    (g "tree.hits") (g "tree.misses") (g "tree.evictions")
    (g "tree.cache_length") (g "tree.cache_capacity") (g "tree.settled_nodes")
    (g "delta.patched_arcs") (g "delta.trees_kept") (g "delta.trees_repaired")
    (g "delta.trees_evicted")

let tree_cache_length t = with_lock t (fun () -> Lru.length t.trees)
let tree_cache_capacity t = Lru.capacity t.trees
let env_cache_length t = with_lock t (fun () -> Lru.length t.envs)
