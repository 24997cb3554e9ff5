(* Engine context: fingerprints, bounded LRU, and cache correctness.

   The load-bearing property is that cached artifacts are *bitwise*
   indistinguishable from freshly-computed ones: a warm context must
   produce byte-identical results to a cold one, and to the plain
   uncached code path, at any pool size. *)

module Context = Rr_engine.Context
module Spec = Rr_engine.Spec
module Fingerprint = Rr_engine.Fingerprint
module Lru = Rr_engine.Lru
open Riskroute

let with_domains k f =
  let old = Rr_util.Parallel.domain_count () in
  Rr_util.Parallel.set_domain_count k;
  Fun.protect ~finally:(fun () -> Rr_util.Parallel.set_domain_count old) f

(* --- bounded LRU --- *)

let test_lru_bound_and_eviction () =
  let l = Lru.create ~capacity:3 in
  Alcotest.(check int) "capacity" 3 (Lru.capacity l);
  let evicted = ref 0 in
  for i = 1 to 10 do
    evicted := !evicted + Lru.add l (string_of_int i) i
  done;
  Alcotest.(check int) "bounded" 3 (Lru.length l);
  Alcotest.(check int) "evictions counted" 7 !evicted;
  (* Most-recent three survive. *)
  Alcotest.(check bool) "10 kept" true (Lru.find l "10" = Some 10);
  Alcotest.(check bool) "9 kept" true (Lru.find l "9" = Some 9);
  Alcotest.(check bool) "8 kept" true (Lru.find l "8" = Some 8);
  Alcotest.(check bool) "7 evicted" true (Lru.find l "7" = None)

let test_lru_find_promotes () =
  let l = Lru.create ~capacity:2 in
  ignore (Lru.add l "a" 1);
  ignore (Lru.add l "b" 2);
  ignore (Lru.find l "a");
  (* "a" is now most recent, so inserting "c" evicts "b". *)
  ignore (Lru.add l "c" 3);
  Alcotest.(check bool) "a survives" true (Lru.find l "a" = Some 1);
  Alcotest.(check bool) "b evicted" true (Lru.find l "b" = None)

let test_lru_bad_capacity () =
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Lru.create: negative capacity") (fun () ->
      ignore (Lru.create ~capacity:(-1)))

(* --- fingerprints --- *)

let test_params_fingerprints_distinct () =
  let base = Fingerprint.params Params.default in
  Alcotest.(check bool) "structurally equal params share a fingerprint" true
    (String.equal base (Fingerprint.params (Params.make ())));
  Alcotest.(check bool) "lambda_h distinguishes" false
    (String.equal base
       (Fingerprint.params (Params.with_lambda_h 7.0 Params.default)));
  Alcotest.(check bool) "lambda_f distinguishes" false
    (String.equal base
       (Fingerprint.params (Params.with_lambda_f 7.0 Params.default)))

let test_advisory_fingerprints_distinct () =
  let advisories = Rr_forecast.Track.advisories Rr_forecast.Track.sandy in
  let a0 = List.nth advisories 0 and a1 = List.nth advisories 1 in
  let none = Fingerprint.advisory None in
  Alcotest.(check bool) "None vs Some" false
    (String.equal none (Fingerprint.advisory (Some a0)));
  Alcotest.(check bool) "different advisories differ" false
    (String.equal (Fingerprint.advisory (Some a0))
       (Fingerprint.advisory (Some a1)));
  Alcotest.(check bool) "same advisory repeats" true
    (String.equal (Fingerprint.advisory (Some a0))
       (Fingerprint.advisory (Some a0)))

(* --- env cache --- *)

let test_env_cache_identity () =
  let ctx = Context.create () in
  let net = Context.require_net ctx "Sprint" in
  let e1 = Context.env ctx net in
  let e2 = Context.env ctx net in
  Alcotest.(check bool) "same env physically shared" true (e1 == e2);
  let stats = Context.stats ctx in
  Alcotest.(check int) "one miss" 1 stats.Context.env_misses;
  Alcotest.(check int) "one hit" 1 stats.Context.env_hits;
  (* A structurally-equal params value still hits: keys are contents,
     not physical identity. *)
  let e3 = Context.env ~params:(Params.make ()) ctx net in
  Alcotest.(check bool) "structural params hit" true (e1 == e3);
  let e4 = Context.env ~params:(Params.with_lambda_h 7.0 Params.default) ctx net in
  Alcotest.(check bool) "distinct params distinct env" true (e1 != e4)

let test_tree_cache_eviction_bound () =
  let ctx = Context.create ~tree_cache_cap:4 () in
  let net = Context.require_net ctx "Sprint" in
  let env = Context.env ctx net in
  let trees = Context.dist_trees ctx env in
  for src = 0 to 9 do
    ignore (trees src)
  done;
  Alcotest.(check int) "length bounded" 4 (Context.tree_cache_length ctx);
  Alcotest.(check int) "capacity recorded" 4 (Context.tree_cache_capacity ctx);
  let stats = Context.stats ctx in
  Alcotest.(check int) "ten misses" 10 stats.Context.tree_misses;
  Alcotest.(check int) "six evictions" 6 stats.Context.tree_evictions;
  (* Re-requesting the most recent source hits; the oldest misses again. *)
  ignore (trees 9);
  ignore (trees 0);
  let stats = Context.stats ctx in
  Alcotest.(check int) "recent hit" 1 stats.Context.tree_hits;
  Alcotest.(check int) "evicted source recomputed" 11 stats.Context.tree_misses

(* --- cache correctness: warm = cold = uncached, at any pool size --- *)

(* Render every float with %h (hex, exact) so the comparison is bitwise,
   not print-rounded. *)
let render_result (r : Ratios.result) =
  Printf.sprintf "rr=%h dr=%h pairs=%d" r.Ratios.risk_reduction
    r.Ratios.distance_increase r.Ratios.pairs

let render_picks picks =
  String.concat ";"
    (List.map
       (fun (p : Augment.pick) ->
         Printf.sprintf "%d-%d:%h:%h" p.Augment.u p.Augment.v
           p.Augment.total_after p.Augment.fraction)
       picks)

let cached_snapshot ctx =
  let net = Context.require_net ctx "Sprint" in
  let env = Context.env ctx net in
  let dist = Context.dist_trees ctx env in
  let risk = Context.risk_trees ctx env in
  let r = Ratios.intradomain ~pair_cap:300 ~trees:dist env in
  let picks = Augment.greedy ~k:2 ~dist_trees:dist ~risk_trees:risk env in
  render_result r ^ " | " ^ render_picks picks

let uncached_snapshot zoo =
  let net = Option.get (Rr_topology.Zoo.find zoo "Sprint") in
  let env = Env.of_net net in
  let r = Ratios.intradomain ~pair_cap:300 env in
  let picks = Augment.greedy ~k:2 env in
  render_result r ^ " | " ^ render_picks picks

let test_warm_equals_cold_across_domains () =
  List.iter
    (fun domains ->
      with_domains domains (fun () ->
          let ctx = Context.create () in
          let cold = cached_snapshot ctx in
          let warm = cached_snapshot ctx in
          Alcotest.(check string)
            (Printf.sprintf "warm = cold at %d domains" domains)
            cold warm;
          let stats = Context.stats ctx in
          Alcotest.(check bool)
            (Printf.sprintf "warm pass hit env cache at %d domains" domains)
            true
            (stats.Context.env_hits > 0);
          Alcotest.(check bool)
            (Printf.sprintf "warm pass hit tree cache at %d domains" domains)
            true
            (stats.Context.tree_hits > 0);
          let fresh = uncached_snapshot (Context.zoo ctx) in
          Alcotest.(check string)
            (Printf.sprintf "cached = uncached at %d domains" domains)
            fresh cold))
    [ 1; 2; 4 ]

(* Distance trees depend only on geometry: environments differing in
   params or advisory share tree-cache entries. *)
let test_trees_shared_across_params () =
  let ctx = Context.create () in
  let net = Context.require_net ctx "Sprint" in
  let e1 = Context.env ctx net in
  ignore (Context.dist_trees ctx e1 0);
  let misses = (Context.stats ctx).Context.tree_misses in
  let e2 = Context.env ~params:(Params.with_lambda_h 7.0 Params.default) ctx net in
  ignore (Context.dist_trees ctx e2 0);
  let stats = Context.stats ctx in
  Alcotest.(check int) "no new tree miss under different params" misses
    stats.Context.tree_misses;
  Alcotest.(check bool) "tree hit instead" true (stats.Context.tree_hits > 0)

(* --- query facades --- *)

let test_net_query_memoised () =
  let ctx = Context.create () in
  let net = Context.require_net ctx "Sprint" in
  let q1 = Context.net_query ctx net in
  let q2 = Context.net_query ctx net in
  Alcotest.(check bool) "same facade physically shared" true (q1 == q2);
  Alcotest.(check int) "node count matches" (Rr_topology.Net.pop_count net)
    (Rr_graph.Query.node_count q1)

let test_landmark_trees_land_in_lru () =
  let ctx = Context.create () in
  let net = Context.require_net ctx "Sprint" in
  let q = Context.net_query ctx net in
  let before = (Context.stats ctx).Context.tree_misses in
  Rr_graph.Query.prepare q;
  let landmarks = Array.length (Rr_graph.Query.landmark_sources q) in
  let stats = Context.stats ctx in
  Alcotest.(check bool) "landmarks chosen" true (landmarks > 0);
  Alcotest.(check int) "one LRU miss per landmark" (before + landmarks)
    stats.Context.tree_misses;
  Alcotest.(check bool) "trees live in the LRU" true
    (Context.tree_cache_length ctx >= landmarks)

let test_query_fingerprint_unified () =
  (* The env-based and net-based facades share the tree-cache namespace:
     a landmark tree prepared through one is a hit for the other. *)
  let ctx = Context.create () in
  let net = Context.require_net ctx "Sprint" in
  let env = Context.env ctx net in
  ignore (Context.query ctx env);
  Rr_graph.Query.prepare (Riskroute.Env.query env);
  let misses = (Context.stats ctx).Context.tree_misses in
  let hits = (Context.stats ctx).Context.tree_hits in
  let q = Context.net_query ctx net in
  Rr_graph.Query.prepare q;
  let stats = Context.stats ctx in
  Alcotest.(check int) "no new misses through the net facade" misses
    stats.Context.tree_misses;
  Alcotest.(check bool) "hits instead" true (stats.Context.tree_hits > hits);
  Alcotest.(check (array int)) "same landmark choice"
    (Rr_graph.Query.landmark_sources (Riskroute.Env.query env))
    (Rr_graph.Query.landmark_sources q)

(* --- advisory-tick patching: Env.patch / Context.patched_env --- *)

let bits = Int64.bits_of_float

let sandy_adv i =
  List.nth (Rr_forecast.Track.advisories Rr_forecast.Track.sandy) i

let check_float_array label a b =
  Alcotest.(check int) (label ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if bits x <> bits b.(i) then
        Alcotest.failf "%s: bitwise mismatch at %d (%h vs %h)" label i x b.(i))
    a

(* Hex-render a tree so string equality is bitwise equality. *)
let render_tree (tr : Rr_graph.Dijkstra.tree) =
  String.concat ","
    (Array.to_list
       (Array.mapi
          (fun v d ->
            Printf.sprintf "%d:%h:%d" v d tr.Rr_graph.Dijkstra.parent.(v))
          tr.Rr_graph.Dijkstra.dist))

let check_envs_bitwise label fresh derived =
  check_float_array (label ^ " forecast") (Env.forecast fresh)
    (Env.forecast derived);
  check_float_array (label ^ " arc risk") (Env.arc_risk fresh)
    (Env.arc_risk derived);
  check_float_array (label ^ " arc miles") (Env.arc_miles fresh)
    (Env.arc_miles derived);
  for i = 0 to Env.node_count fresh - 1 do
    if bits (Env.node_risk fresh i) <> bits (Env.node_risk derived i) then
      Alcotest.failf "%s node_risk mismatch at %d" label i
  done

let test_env_patch_matches_rebuild () =
  List.iter
    (fun domains ->
      with_domains domains (fun () ->
          let ctx = Context.create () in
          let net = Context.require_net ctx "Level3" in
          let e0 = Context.env ~advisory:(sandy_adv 40) ctx net in
          let d =
            Rr_forecast.Riskfield.diff_field ~old_field:(Env.forecast e0)
              ~next:(Some (sandy_adv 41))
              (Env.coords e0)
          in
          Alcotest.(check bool) "tick moved the field" true
            (Array.length d.Rr_forecast.Riskfield.indices > 0);
          let p =
            Env.patch e0 ~indices:d.Rr_forecast.Riskfield.indices
              ~values:d.Rr_forecast.Riskfield.values
          in
          Alcotest.(check bool) "changed pops recorded" true
            (Array.length p.Env.changed_pops > 0);
          Alcotest.(check bool) "patched arcs recorded" true
            (Array.length p.Env.patched_arcs > 0);
          (* Geometry is shared with the parent, not copied. *)
          Alcotest.(check bool) "arc miles shared" true
            (Env.arc_miles p.Env.env == Env.arc_miles e0);
          let fresh =
            Context.env ~advisory:(sandy_adv 41) (Context.create ()) net
          in
          check_envs_bitwise
            (Printf.sprintf "patched env at %d domains" domains)
            fresh p.Env.env;
          (* An empty delta hands the parent back physically. *)
          let unchanged = Env.patch e0 ~indices:[||] ~values:[||] in
          Alcotest.(check bool) "empty delta reuses parent" true
            (unchanged.Env.env == e0)))
    [ 1; 2; 4 ]

let test_patched_env_matches_fresh () =
  List.iter
    (fun domains ->
      with_domains domains (fun () ->
          let ctx = Context.create () in
          let net = Context.require_net ctx "Level3" in
          let e0 = Context.env ~advisory:(sandy_adv 40) ctx net in
          let risk0 = Context.risk_trees ctx e0 in
          List.iter (fun s -> ignore (risk0 s)) [ 0; 1; 2 ];
          let e1 = Context.patched_env ~advisory:(sandy_adv 41) ctx net ~parent:e0 in
          let fresh_ctx = Context.create () in
          let f1 = Context.env ~advisory:(sandy_adv 41) fresh_ctx net in
          check_envs_bitwise
            (Printf.sprintf "patched_env at %d domains" domains)
            f1 e1;
          (* Migrated cached trees and freshly-computed ones both match a
             cold context bitwise (sources 0-2 were cached and migrated;
             source 5 is computed from the patched env). *)
          List.iter
            (fun s ->
              Alcotest.(check string)
                (Printf.sprintf "risk tree %d at %d domains" s domains)
                (render_tree (Context.risk_trees fresh_ctx f1 s))
                (render_tree (Context.risk_trees ctx e1 s)))
            [ 0; 1; 2; 5 ];
          (* The patched env landed under the content-addressed key a
             from-scratch build would use. *)
          Alcotest.(check bool) "env cache unified" true
            (Context.env ~advisory:(sandy_adv 41) ctx net == e1);
          let st = Context.stats ctx in
          Alcotest.(check int) "one env patched" 1 st.Context.env_patched;
          Alcotest.(check bool) "arcs re-weighted" true
            (st.Context.delta_patched_arcs > 0);
          Alcotest.(check int) "all three cached trees migrated" 3
            (st.Context.delta_trees_kept + st.Context.delta_trees_repaired
           + st.Context.delta_trees_evicted)))
    [ 1; 2; 4 ]

let test_patched_env_offshore_keeps_trees () =
  let ctx = Context.create () in
  let net = Context.require_net ctx "Level3" in
  (* Sandy's first two advisories are far offshore: the risk field over
     a CONUS net is all-zero on both ticks. *)
  let e0 = Context.env ~advisory:(sandy_adv 0) ctx net in
  let risk0 = Context.risk_trees ctx e0 in
  let t0 = risk0 0 and t1 = risk0 1 in
  let e1 = Context.patched_env ~advisory:(sandy_adv 1) ctx net ~parent:e0 in
  Alcotest.(check bool) "parent env reused physically" true (e0 == e1);
  Alcotest.(check bool) "future lookups hit the new key" true
    (Context.env ~advisory:(sandy_adv 1) ctx net == e1);
  let st = Context.stats ctx in
  Alcotest.(check int) "no arcs patched" 0 st.Context.delta_patched_arcs;
  Alcotest.(check int) "both cached trees kept" 2 st.Context.delta_trees_kept;
  Alcotest.(check int) "no repairs or evictions" 0
    (st.Context.delta_trees_repaired + st.Context.delta_trees_evicted);
  (* Kept means kept: the same physical trees serve the new tick. *)
  let risk1 = Context.risk_trees ctx e1 in
  Alcotest.(check bool) "tree 0 physically shared" true (risk1 0 == t0);
  Alcotest.(check bool) "tree 1 physically shared" true (risk1 1 == t1)

let continental_net =
  lazy
    (let ctx = Context.create () in
     Context.continental ctx ~pops:2000)

(* The one representation against a literal reference: every distance
   an Env hands out is [Rr_geo.Distance.miles] with the lower-numbered
   endpoint first, and Metric's folds over routed paths are the plain
   left folds of that value and [node_risk]. *)
let reference_miles coords u v =
  if u = v then 0.0
  else if u < v then Rr_geo.Distance.miles coords.(u) coords.(v)
  else Rr_geo.Distance.miles coords.(v) coords.(u)

let check_env_reference label env ~pairs ~routes =
  let coords = Env.coords env in
  let off = Env.arc_off env and tgt = Env.arc_tgt env in
  let miles = Env.arc_miles env in
  for u = 0 to Env.node_count env - 1 do
    for k = off.(u) to off.(u + 1) - 1 do
      if bits miles.(k) <> bits (reference_miles coords u tgt.(k)) then
        Alcotest.failf "%s: arc_miles mismatch on arc %d (%d, %d)" label k u
          tgt.(k)
    done
  done;
  List.iter
    (fun (u, v) ->
      let r = bits (reference_miles coords u v) in
      if
        bits (Env.link_miles env u v) <> r
        || bits (Env.link_miles env v u) <> r
      then Alcotest.failf "%s: link_miles mismatch at (%d, %d)" label u v)
    pairs;
  let fold path ~f =
    let rec go acc = function
      | a :: (b :: _ as rest) -> go (acc +. f a b) rest
      | [ _ ] | [] -> acc
    in
    go 0.0 path
  in
  List.iter
    (fun (src, dst) ->
      let kappa = Env.kappa env src dst in
      List.iter
        (fun (r : Router.route option) ->
          let path = (Option.get r).Router.path in
          let want_miles = fold path ~f:(reference_miles coords) in
          let want_risk =
            fold path ~f:(fun a b ->
                reference_miles coords a b +. (kappa *. Env.node_risk env b))
          in
          let check what got want =
            if bits got <> bits want then
              Alcotest.failf "%s: %s on (%d, %d): %h vs %h" label what src dst
                got want
          in
          check "bit_miles" (Metric.bit_miles env path) want_miles;
          check "bit_risk_miles_kappa"
            (Metric.bit_risk_miles_kappa env ~kappa path)
            want_risk;
          check "terms_total"
            (Metric.terms_total ~kappa (Metric.terms env path))
            want_risk)
        [ Router.riskroute env ~src ~dst; Router.shortest env ~src ~dst ])
    routes;
  (* A hop that is not an arc has no arc miles: Metric refuses it. *)
  let graph = Env.graph env in
  let u, v =
    List.find
      (fun (u, v) -> u <> v && not (Rr_graph.Graph.has_edge graph u v))
      pairs
  in
  let raises what f =
    match f () with
    | _ ->
      Alcotest.failf "%s: %s accepted the non-arc hop (%d, %d)" label what u v
    | exception Invalid_argument _ -> ()
  in
  raises "bit_miles" (fun () -> Metric.bit_miles env [ u; v ]);
  raises "bit_risk_miles_kappa" (fun () ->
      Metric.bit_risk_miles_kappa env ~kappa:1.0 [ u; v ]);
  raises "term" (fun () -> Metric.term env u v)

let test_env_reference () =
  let level3 =
    Env.of_net ~advisory:(sandy_adv 40)
      (Option.get (Rr_topology.Zoo.find (Rr_topology.Zoo.shared ()) "Level3"))
  in
  let n = Env.node_count level3 in
  let all_pairs =
    List.concat_map
      (fun u -> List.init (n - u) (fun i -> (u, u + i)))
      (List.init n Fun.id)
  in
  check_env_reference "Level3" level3 ~pairs:all_pairs
    ~routes:[ (0, n - 1); (17, 101); (200, 3) ];
  let continental =
    Context.env ~advisory:(sandy_adv 40) (Context.create ())
      (Lazy.force continental_net)
  in
  let n = Env.node_count continental in
  let rng = Rr_util.Prng.create 0x2000L in
  let sampled =
    List.init 4000 (fun _ -> (Rr_util.Prng.int rng n, Rr_util.Prng.int rng n))
  in
  check_env_reference "continental-2000" continental ~pairs:sampled
    ~routes:[ (0, n - 1); (123, 1750); (1999, 500) ]

let test_patched_env_continental () =
  let net = Lazy.force continental_net in
  List.iter
    (fun domains ->
      with_domains domains (fun () ->
          let ctx = Context.create () in
          let e0 = Context.env ~advisory:(sandy_adv 40) ctx net in
          let risk0 = Context.risk_trees ctx e0 in
          List.iter (fun s -> ignore (risk0 s)) [ 0; 7 ];
          let e1 =
            Context.patched_env ~advisory:(sandy_adv 41) ctx net ~parent:e0
          in
          let fresh_ctx = Context.create () in
          let f1 = Context.env ~advisory:(sandy_adv 41) fresh_ctx net in
          check_envs_bitwise
            (Printf.sprintf "continental patch at %d domains" domains)
            f1 e1;
          List.iter
            (fun s ->
              Alcotest.(check string)
                (Printf.sprintf "continental risk tree %d at %d domains" s
                   domains)
                (render_tree (Context.risk_trees fresh_ctx f1 s))
                (render_tree (Context.risk_trees ctx e1 s)))
            [ 0; 7 ]))
    [ 1; 2; 4 ]

(* A landfall tick evaluates the storm's footprint and the old field's
   non-zero PoPs, not the whole net, and still patches exactly. *)
let test_continental_landfall_diff_window () =
  let net = Lazy.force continental_net in
  let ctx = Context.create () in
  let e0 = Context.env ~advisory:(sandy_adv 40) ctx net in
  let n = Env.node_count e0 in
  let evaluated = Rr_obs.Counter.make "forecast.diff_evaluated" in
  Rr_obs.set_enabled true;
  let e1, moved =
    Fun.protect ~finally:(fun () -> Rr_obs.set_enabled false) @@ fun () ->
    let before = Rr_obs.Counter.value evaluated in
    let e1 =
      Context.patched_env ~advisory:(sandy_adv 41) ctx net ~parent:e0
    in
    (e1, Rr_obs.Counter.value evaluated - before)
  in
  Alcotest.(check bool) "the tick moved the field" false (e1 == e0);
  Alcotest.(check bool)
    (Printf.sprintf "evaluated %d of %d PoPs" moved n)
    true
    (moved > 0 && moved < n);
  check_envs_bitwise "landfall patch"
    (Context.env ~advisory:(sandy_adv 41) (Context.create ()) net)
    e1

(* --- tree migration on the pool ---

   [patched_env] repairs a tick's failing trees as one pool batch and
   applies the results in candidate order on the calling domain, so
   counts, trees and LRU recency must not depend on the pool size. The
   setup: continental-2000 at Sandy advisory 37 with ten cached risk
   trees, then patched through ticks 38-45 (landfall: several repairs
   per tick, and frontier fallbacks). *)

let migration_sources = [ 0; 123; 250; 500; 750; 1000; 1250; 1500; 1750; 1999 ]

let with_telemetry f =
  Rr_obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Rr_obs.set_enabled false) f

(* Context at advisory 37 with the ten trees cached, and a function
   that patches it one tick further. *)
let migration_setup ?tree_cache_cap () =
  let net = Lazy.force continental_net in
  let ctx = Context.create ?tree_cache_cap () in
  let e37 = Context.env ~advisory:(sandy_adv 37) ctx net in
  List.iter (fun s -> ignore (Context.risk_trees ctx e37 s)) migration_sources;
  let env = ref e37 in
  let tick i =
    env := Context.patched_env ~advisory:(sandy_adv i) ctx net ~parent:!env;
    !env
  in
  (ctx, tick)

let test_migration_pool_independent () =
  let net = Lazy.force continental_net in
  let ticks = List.init 8 (fun i -> 38 + i) in
  (* Fresh trees per tick, from a cold context: the bitwise reference. *)
  let fresh =
    List.map
      (fun i ->
        let c = Context.create () in
        let e = Context.env ~advisory:(sandy_adv i) c net in
        (i, List.map (fun s -> render_tree (Context.risk_trees c e s))
              migration_sources))
      ticks
  in
  let run domains =
    with_domains domains @@ fun () ->
    let ctx, tick = migration_setup () in
    List.map
      (fun i ->
        let before = Context.stats ctx in
        let e = tick i in
        let after = Context.stats ctx in
        (* Every cached tree migrated: the lookups below all hit. *)
        let trees =
          List.map (fun s -> render_tree (Context.risk_trees ctx e s))
            migration_sources
        in
        Alcotest.(check int)
          (Printf.sprintf "tick %d at %d domains: lookups all hit" i domains)
          after.Context.tree_misses (Context.stats ctx).Context.tree_misses;
        List.iteri
          (fun j (s, tr) ->
            Alcotest.(check string)
              (Printf.sprintf "tick %d at %d domains: tree %d = fresh" i
                 domains s)
              (List.nth (List.assoc i fresh) j) tr)
          (List.combine migration_sources trees);
        let failing =
          after.Context.delta_trees_repaired
          + after.Context.delta_trees_evicted
          - before.Context.delta_trees_repaired
          - before.Context.delta_trees_evicted
        in
        (failing, Context.stats_fields ctx))
      ticks
  in
  let one = run 1 in
  (* The batch is exercised: ticks with several failing trees, and at
     least one frontier fallback inside a pool task. *)
  Alcotest.(check bool) "a tick repairs several trees" true
    (List.exists (fun (failing, _) -> failing >= 2) one);
  let last_stats = snd (List.nth one (List.length one - 1)) in
  Alcotest.(check bool) "a repair fell back to a full run" true
    (List.assoc "delta.trees_evicted" last_stats > 0);
  List.iter
    (fun domains ->
      List.iter2
        (fun i ((_, a), (_, b)) ->
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "stats after tick %d: 1 vs %d domains" i domains)
            a b)
        ticks
        (List.combine one (run domains)))
    [ 2; 4 ]

(* With room for only two more trees, a burst of five new lookups
   evicts the three least recently used: migration kept the trees'
   recency (0 oldest), whatever order the pool finished them in. *)
let test_migration_keeps_lru_recency () =
  let run domains =
    with_domains domains @@ fun () ->
    let ctx, tick = migration_setup ~tree_cache_cap:12 () in
    let e = ref (tick 38) in
    for i = 39 to 45 do
      e := tick i
    done;
    let risk = Context.risk_trees ctx !e in
    List.iter (fun s -> ignore (risk s)) [ 1; 2; 3; 4; 5 ];
    (* Newest first: the misses come last, so no lookup evicts a tree
       that is still to be looked up. *)
    let resident =
      List.map
        (fun s ->
          let hits = (Context.stats ctx).Context.tree_hits in
          ignore (risk s);
          (s, (Context.stats ctx).Context.tree_hits > hits))
        (List.rev migration_sources)
    in
    (resident, Context.stats_fields ctx)
  in
  let resident1, stats1 = run 1 in
  Alcotest.(check (list (pair int bool)))
    "the three oldest trees were evicted"
    (List.map (fun s -> (s, s > 250)) (List.rev migration_sources))
    resident1;
  List.iter
    (fun domains ->
      let resident, stats = run domains in
      Alcotest.(check (list (pair int bool)))
        (Printf.sprintf "same evictions at %d domains" domains)
        resident1 resident;
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "hits, misses, evictions at %d domains" domains)
        stats1 stats)
    [ 2; 4 ]

(* Kept means an empty delta: Sandy 0 -> 1 is offshore, so every
   cached tree carries over without a repair or a pool batch. A changed
   tick repairs every cached tree — Sandy 32 -> 33 changes one PoP of
   continental-2000, and even the tree rooted there, which the change
   cannot reach, is repaired (with nothing dirty). A single repair runs
   inline; several make one batch. *)
let test_kept_trees_skip_the_pool () =
  let net = Lazy.force continental_net in
  let changed =
    let e32 = Context.env ~advisory:(sandy_adv 32) (Context.create ()) net in
    let d =
      Rr_forecast.Riskfield.diff_field ~old_field:(Env.forecast e32)
        ~next:(Some (sandy_adv 33)) (Env.coords e32)
    in
    (Env.patch e32 ~indices:d.Rr_forecast.Riskfield.indices
       ~values:d.Rr_forecast.Riskfield.values)
      .Env.changed_pops
  in
  Alcotest.(check int) "Sandy 32 -> 33 changes one PoP" 1
    (Array.length changed);
  let root = changed.(0) in
  let others = List.filter (fun s -> s <> root) [ 0; 1000; 1999 ] in
  let batches = Rr_obs.Counter.make "parallel.batches" in
  with_domains 2 @@ fun () ->
  with_telemetry @@ fun () ->
  let tick ?(from = 32) sources =
    let ctx = Context.create () in
    let e = Context.env ~advisory:(sandy_adv from) ctx net in
    List.iter (fun s -> ignore (Context.risk_trees ctx e s)) sources;
    let b0 = Rr_obs.Counter.value batches in
    let e' =
      Context.patched_env ~advisory:(sandy_adv (from + 1)) ctx net ~parent:e
    in
    Alcotest.(check bool) "parent env reused on the empty delta only"
      (from = 0) (e' == e);
    let st = Context.stats ctx in
    ( st.Context.delta_trees_kept,
      st.Context.delta_trees_repaired + st.Context.delta_trees_evicted,
      Rr_obs.Counter.value batches - b0 )
  in
  let check label expected got =
    Alcotest.(check (triple int int int)) label expected got
  in
  check "empty delta: every tree kept, no batch"
    (1 + List.length others, 0, 0)
    (tick ~from:0 (root :: others));
  check "one tree: repaired inline" (0, 1, 0) (tick [ root ]);
  check "several trees: one batch" (0, 1 + List.length others, 1)
    (tick (root :: others))

(* One changed tick records one engine.migrate span, and under it one
   dijkstra.repair span per repaired or fallen-back tree, across the
   parallel.task hand-off to the pool's domains. *)
let test_migrate_spans () =
  with_domains 2 @@ fun () ->
  let ctx, tick = migration_setup () in
  with_telemetry @@ fun () ->
  let last_id =
    List.fold_left (fun m s -> max m s.Rr_obs.sp_id) 0 (Rr_obs.spans ())
  in
  let before = Context.stats ctx in
  ignore (tick 38);
  let after = Context.stats ctx in
  let spans =
    List.filter (fun s -> s.Rr_obs.sp_id > last_id) (Rr_obs.spans ())
  in
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.Rr_obs.sp_id s) spans;
  let named n = List.filter (fun s -> s.Rr_obs.sp_name = n) spans in
  let rec ancestors s =
    match Hashtbl.find_opt by_id s.Rr_obs.sp_parent with
    | Some p -> p :: ancestors p
    | None -> []
  in
  Alcotest.(check int) "one forecast.diff_field span" 1
    (List.length (named "forecast.diff_field"));
  Alcotest.(check int) "one env.patch span" 1 (List.length (named "env.patch"));
  let migrate =
    match named "engine.migrate" with
    | [ m ] -> m
    | l -> Alcotest.failf "%d engine.migrate spans" (List.length l)
  in
  let failing =
    after.Context.delta_trees_repaired + after.Context.delta_trees_evicted
    - before.Context.delta_trees_repaired - before.Context.delta_trees_evicted
  in
  Alcotest.(check bool) "the tick repairs several trees" true (failing >= 2);
  let repairs = named "dijkstra.repair" in
  Alcotest.(check int) "one dijkstra.repair span per failing tree" failing
    (List.length
       (List.filter
          (fun s -> List.memq migrate (ancestors s))
          repairs));
  Alcotest.(check bool) "repairs ran as pool tasks" true
    (List.for_all
       (fun s ->
         List.exists
           (fun a -> a.Rr_obs.sp_name = "parallel.task")
           (ancestors s))
       repairs)

let test_lru_fold_and_remove () =
  let l = Lru.create ~capacity:4 in
  ignore (Lru.add l "a" 1);
  ignore (Lru.add l "b" 2);
  ignore (Lru.add l "c" 3);
  let keys = Lru.fold l ~init:[] ~f:(fun acc k _ -> k :: acc) in
  (* fold walks most-recent first and must not disturb recency. *)
  Alcotest.(check (list string)) "MRU-first walk" [ "a"; "b"; "c" ] keys;
  Alcotest.(check bool) "remove present" true (Lru.remove l "b");
  Alcotest.(check bool) "remove absent" false (Lru.remove l "b");
  Alcotest.(check int) "length after remove" 2 (Lru.length l);
  Alcotest.(check bool) "removed key gone" true (Lru.find l "b" = None);
  Alcotest.(check bool) "others survive" true
    (Lru.find l "a" = Some 1 && Lru.find l "c" = Some 3)

let test_stats_fields_shape () =
  let ctx = Context.create () in
  Alcotest.(check (list string))
    "fixed field order"
    [
      "env.hits"; "env.misses"; "env.patched"; "env.cache_length";
      "tree.hits"; "tree.misses"; "tree.evictions"; "tree.cache_length";
      "tree.cache_capacity"; "tree.settled_nodes"; "delta.patched_arcs";
      "delta.trees_kept"; "delta.trees_repaired"; "delta.trees_evicted";
    ]
    (List.map fst (Context.stats_fields ctx))

let test_spec_accessors () =
  let s = Spec.make ~pair_cap:7 () in
  Alcotest.(check int) "explicit" 7 (Spec.pair_cap ~default:99 s);
  Alcotest.(check int) "defaulted" 99 (Spec.pair_cap ~default:99 Spec.default);
  Alcotest.(check int) "k defaulted" 4 (Spec.k ~default:4 Spec.default)

let () =
  Alcotest.run "rr_engine"
    [
      ( "lru",
        [
          Alcotest.test_case "bound and eviction" `Quick test_lru_bound_and_eviction;
          Alcotest.test_case "find promotes" `Quick test_lru_find_promotes;
          Alcotest.test_case "bad capacity" `Quick test_lru_bad_capacity;
          Alcotest.test_case "fold and remove" `Quick test_lru_fold_and_remove;
        ] );
      ( "fingerprints",
        [
          Alcotest.test_case "params" `Quick test_params_fingerprints_distinct;
          Alcotest.test_case "advisories" `Quick test_advisory_fingerprints_distinct;
        ] );
      ( "caches",
        [
          Alcotest.test_case "env identity" `Quick test_env_cache_identity;
          Alcotest.test_case "tree eviction bound" `Quick test_tree_cache_eviction_bound;
          Alcotest.test_case "trees shared across params" `Quick
            test_trees_shared_across_params;
          Alcotest.test_case "spec accessors" `Quick test_spec_accessors;
          Alcotest.test_case "net query memoised" `Quick test_net_query_memoised;
          Alcotest.test_case "landmark trees in LRU" `Quick
            test_landmark_trees_land_in_lru;
          Alcotest.test_case "query fingerprint unified" `Quick
            test_query_fingerprint_unified;
        ] );
      ( "delta",
        [
          Alcotest.test_case "stats fields shape" `Quick
            test_stats_fields_shape;
          Alcotest.test_case "env patch = rebuild, domains 1/2/4" `Slow
            test_env_patch_matches_rebuild;
          Alcotest.test_case "patched_env = fresh, domains 1/2/4" `Slow
            test_patched_env_matches_fresh;
          Alcotest.test_case "offshore tick keeps trees" `Quick
            test_patched_env_offshore_keeps_trees;
          Alcotest.test_case "env = great-circle reference" `Quick
            test_env_reference;
          Alcotest.test_case "continental patch, domains 1/2/4" `Slow
            test_patched_env_continental;
          Alcotest.test_case "continental landfall diff is windowed" `Slow
            test_continental_landfall_diff_window;
          Alcotest.test_case "migration = fresh, domains 1/2/4" `Slow
            test_migration_pool_independent;
          Alcotest.test_case "migration keeps LRU recency, domains 1/2/4"
            `Slow test_migration_keeps_lru_recency;
          Alcotest.test_case "kept trees skip the pool" `Slow
            test_kept_trees_skip_the_pool;
          Alcotest.test_case "migrate and repair spans" `Slow
            test_migrate_spans;
        ] );
      ( "correctness",
        [
          Alcotest.test_case "warm = cold = uncached, domains 1/2/4" `Slow
            test_warm_equals_cold_across_domains;
        ] );
    ]
