(* Point-to-point query facade: both runners must return bit-identical
   (cost, path) answers to the plain single-pair kernel, on any graph,
   under any RiskRoute weight function, at any pool size. *)

open Rr_graph
module Parallel = Rr_util.Parallel

let with_domains k f =
  let old = Parallel.domain_count () in
  Parallel.set_domain_count k;
  Fun.protect ~finally:(fun () -> Parallel.set_domain_count old) f

let builder_net ~seed ~pops =
  let rng = Rr_util.Prng.create seed in
  Rr_topology.Builder.build ~rng
    {
      (* The census service memoises impact vectors by network name, so
         every (seed, size) needs its own. *)
      Rr_topology.Builder.name = Printf.sprintf "QueryTest-%Ld-%d" seed pops;
      tier = Rr_topology.Net.Regional;
      states = [];
      pop_count = pops;
      style = Rr_topology.Builder.Mesh;
      mesh_fraction = 0.3;
      hub_links = 2;
    }

let query_of_env env =
  let q = Riskroute.Env.query env in
  (q, Query.arc_off q, Query.arc_tgt q, Query.arc_miles q)

(* The RiskRoute weight shapes: pure bit-miles, bit-miles plus a
   non-negative per-target term (what bit-risk-miles adds), and that
   risk weight with infinity on arcs into a seeded subset of nodes (how
   Backup, Mrc and Outagesim remove failed nodes). *)
let weights_of ~seed env tgt miles =
  let n = Rr_graph.Graph.node_count (Riskroute.Env.graph env) in
  let risk = Array.init n (fun i -> Riskroute.Env.node_risk env i) in
  let rng = Rr_util.Prng.create (Int64.of_int (seed * 104729)) in
  let removed = Array.init n (fun _ -> Rr_util.Prng.int rng 5 = 0) in
  let risk_weight k =
    Array.unsafe_get miles k
    +. (0.5 *. Array.unsafe_get risk (Array.unsafe_get tgt k))
  in
  [
    ("miles", fun k -> Array.unsafe_get miles k);
    ("risk", risk_weight);
    ("masked", fun k -> if removed.(tgt.(k)) then infinity else risk_weight k);
  ]

let same_answer a b =
  match (a, b) with
  | Some (ca, pa), Some (cb, pb) ->
    Int64.equal (Int64.bits_of_float ca) (Int64.bits_of_float cb) && pa = pb
  | None, None -> true
  | _ -> false

let check_pair ~what q ~off:_ ~tgt:_ ~weight ~reference ~src ~dst =
  let expect = reference ~weight ~src ~dst in
  List.iter
    (fun runner ->
      let got = Query.run ~runner q ~weight ~src ~dst in
      if not (same_answer expect got) then
        Alcotest.failf "%s: %s differs from plain kernel on (%d, %d)" what
          (Query.runner_name runner) src dst)
    [ Query.Plain; Query.Alt ]

let test_plain_matches_flat () =
  let net = builder_net ~seed:11L ~pops:40 in
  let env = Riskroute.Env.of_net net in
  let q, off, tgt, miles = query_of_env env in
  let n = Query.node_count q in
  let weight k = miles.(k) in
  for src = 0 to min 9 (n - 1) do
    let dst = n - 1 - src in
    let expect = Dijkstra.single_pair_flat ~n ~off ~tgt ~weight ~src ~dst in
    let got = Query.run ~runner:Query.Plain q ~weight ~src ~dst in
    Alcotest.(check bool)
      (Printf.sprintf "plain = flat on (%d, %d)" src dst)
      true (same_answer expect got)
  done

let runners_agree =
  QCheck.Test.make ~name:"alt agrees with plain bitwise" ~count:12
    QCheck.(triple small_nat small_nat small_nat)
    (fun (a, b, c) ->
      (* Clamp in the body: shrinkers may step outside generator
         ranges, and Builder rejects pop_count < 1. *)
      let seed = 1 + (a mod 1000)
      and pops = 20 + (b mod 51)
      and pool = 1 + (c mod 3) in
      let net = builder_net ~seed:(Int64.of_int seed) ~pops in
      let env = Riskroute.Env.of_net net in
      let q, off, tgt, miles = query_of_env env in
      let n = Query.node_count q in
      Query.prepare q;
      let reference ~weight ~src ~dst =
        Dijkstra.single_pair_flat ~n ~off ~tgt ~weight ~src ~dst
      in
      let rng = Rr_util.Prng.create (Int64.of_int (seed * 7919)) in
      let pairs =
        Array.init 12 (fun _ ->
            (Rr_util.Prng.int rng n, Rr_util.Prng.int rng n))
      in
      with_domains pool (fun () ->
          List.iter
            (fun (wname, weight) ->
              ignore
                (Parallel.map_array
                   (fun (src, dst) ->
                     check_pair ~what:wname q ~off ~tgt ~weight ~reference
                       ~src ~dst)
                   pairs))
            (weights_of ~seed env tgt miles));
      true)

(* A random geometry over [n] PoPs in [parts] components (each a random
   spanning tree plus chords; [parts = 1] is connected), with random
   positive historical risk, through [Env.make] so arc miles are
   mirrored exactly as every production env builds them. *)
let random_env ~seed ~n ~parts =
  let rng = Rr_util.Prng.create (Int64.of_int seed) in
  let coords =
    Array.init n (fun _ ->
        Rr_geo.Coord.make
          ~lat:(Rr_util.Prng.uniform rng 25.0 48.0)
          ~lon:(Rr_util.Prng.uniform rng (-124.0) (-70.0)))
  in
  let part v = v mod parts in
  let g = Graph.create n in
  for v = parts to n - 1 do
    (* an earlier node of the same component *)
    let k = (v - part v) / parts in
    Graph.add_edge g v ((Rr_util.Prng.int rng k * parts) + part v)
  done;
  for _ = 1 to n do
    let u = Rr_util.Prng.int rng n and v = Rr_util.Prng.int rng n in
    if u <> v && part u = part v then Graph.add_edge g u v
  done;
  Riskroute.Env.make ~graph:g ~coords
    ~impact:(Array.make n (1.0 /. float_of_int n))
    ~historical:(Array.init n (fun _ -> Rr_util.Prng.uniform rng 1e-7 1e-4))
    ()

let toward_agrees =
  QCheck.Test.make ~name:"toward agrees with plain bitwise" ~count:40
    QCheck.(quad small_nat small_nat small_nat small_nat)
    (fun (a, b, c, d) ->
      let seed = 1 + (a mod 1000)
      and n = 2 + (b mod 60)
      and parts = 1 + (c mod 4) in
      let env = random_env ~seed ~n ~parts in
      let q, off, tgt, miles = query_of_env env in
      let risk = Riskroute.Env.arc_risk env in
      let rng = Rr_util.Prng.create (Int64.of_int ((seed * 31) + d)) in
      (* kappa = 0 is pure bit-miles; up to 1e6 risk dominates. *)
      let kappas =
        0.0 :: List.init 3 (fun _ -> 10.0 ** Rr_util.Prng.uniform rng (-4.0) 6.0)
      in
      let removed = Array.init n (fun _ -> Rr_util.Prng.int rng 6 = 0) in
      for _ = 1 to 10 do
        let src = Rr_util.Prng.int rng n and dst = Rr_util.Prng.int rng n in
        let toward =
          (Dijkstra.single_source_flat ~n ~off ~tgt ~weight:(Miles miles)
             ~src:dst)
            .Dijkstra.dist
        in
        List.iter
          (fun kappa ->
            let risky k = miles.(k) +. (kappa *. risk.(k)) in
            List.iter
              (fun (wname, weight) ->
                let expect = Query.run ~runner:Query.Plain q ~weight ~src ~dst in
                let got, runner, _ =
                  Query.run_stats ~toward q ~weight ~src ~dst
                in
                if toward.(src) = infinity && expect <> None then
                  Alcotest.failf "plain routes across components (%d, %d)" src dst;
                if not (same_answer expect got) then
                  Alcotest.failf
                    "toward differs from plain: %s, kappa %g, (%d, %d), n %d, \
                     %d parts"
                    wname kappa src dst n parts;
                if src <> dst && runner <> Query.Alt then
                  Alcotest.failf "toward query not served by alt")
              [
                ("risk", risky);
                ("masked", fun k -> if removed.(tgt.(k)) then infinity else risky k);
              ])
          kappas
      done;
      true)

(* Weights as data ([Miles], [Eq1]) against closures of the same
   expressions ([Fn]), on random geometries at pools 1/2/4: trees,
   single pairs, path costs, repairs and queries under every potential
   must agree in every bit, and so must the work they report. The merged
   query loop under [Zero] must also answer as the closure reference
   [Dijkstra.single_pair_flat]. *)
let bits = Int64.bits_of_float

let check_same_tree ~what (a : Dijkstra.tree) (b : Dijkstra.tree) =
  Array.iteri
    (fun v d ->
      if bits d <> bits b.Dijkstra.dist.(v) then
        Alcotest.failf "%s: dist differs at node %d (%h vs %h)" what v d
          b.Dijkstra.dist.(v);
      if a.Dijkstra.parent.(v) <> b.Dijkstra.parent.(v) then
        Alcotest.failf "%s: parent differs at node %d" what v)
    a.Dijkstra.dist

let check_same_search ~what (r1, run1, s1) (r2, run2, s2) =
  if not (same_answer r1 r2) then Alcotest.failf "%s: answers differ" what;
  if run1 <> run2 then Alcotest.failf "%s: runners differ" what;
  if s1 <> s2 then Alcotest.failf "%s: settled %d vs %d" what s1 s2

let data_weights_equal_closures =
  QCheck.Test.make ~name:"data weights equal closures bitwise" ~count:25
    QCheck.(quad small_nat small_nat small_nat small_nat)
    (fun (a, b, c, d) ->
      let seed = 1 + (a mod 1000)
      and n = 2 + (b mod 60)
      and parts = 1 + (c mod 4) in
      let env = random_env ~seed ~n ~parts in
      let q, off, tgt, miles = query_of_env env in
      let risk = Riskroute.Env.arc_risk env
      and mate = Riskroute.Env.arc_mate env in
      let src_of = Arc_weight.sources off in
      let rng = Rr_util.Prng.create (Int64.of_int ((seed * 131) + d)) in
      (* kappa = 0 and log-uniform kappa up to 1e6, where risk dominates. *)
      let kappas =
        0.0 :: List.init 2 (fun _ -> 10.0 ** Rr_util.Prng.uniform rng (-4.0) 6.0)
      in
      (* A storm tick: new risk on the arcs into a few nodes. *)
      let hit = Array.init n (fun _ -> Rr_util.Prng.int rng 4 = 0) in
      let risk' =
        Array.mapi
          (fun k r ->
            if hit.(tgt.(k)) then r *. Rr_util.Prng.uniform rng 0.0 3.0 else r)
          risk
      in
      let changed =
        Array.of_list
          (List.filter_map
             (fun k -> if hit.(tgt.(k)) then Some (k, src_of.(k)) else None)
             (List.init (Array.length tgt) Fun.id))
      in
      let towards =
        Array.init n (fun dst ->
            (Dijkstra.single_source_flat ~n ~off ~tgt ~weight:(Miles miles)
               ~src:dst)
              .Dijkstra.dist)
      in
      Query.prepare q;
      let pairs =
        Array.init 8 (fun _ -> (Rr_util.Prng.int rng n, Rr_util.Prng.int rng n))
      in
      let check_kappa kappa =
        let eq1 r k = miles.(k) +. (kappa *. r.(k)) in
        let weights =
          [
            ("miles", Dijkstra.Miles miles, fun k -> miles.(k));
            ("eq1", Dijkstra.Eq1 { miles; risk; kappa }, eq1 risk);
          ]
        in
        List.iter
          (fun (wname, data, closure) ->
            let what s = Printf.sprintf "%s kappa %g n %d: %s" wname kappa n s in
            let tree w src = Dijkstra.single_source_flat ~n ~off ~tgt ~weight:w ~src in
            for src = 0 to n - 1 do
              check_same_tree ~what:(what "tree") (tree data src)
                (tree (Fn closure) src)
            done;
            Array.iter
              (fun (src, dst) ->
                let reference =
                  Dijkstra.single_pair_flat ~n ~off ~tgt ~weight:closure ~src ~dst
                in
                let plain =
                  Query.search ~runner:Query.Plain q ~weight:data ~src ~dst
                in
                let r, _, _ = plain in
                if not (same_answer reference r) then
                  Alcotest.failf "%s" (what "zero potential vs single_pair_flat");
                check_same_search ~what:(what "zero") plain
                  (Query.run_stats ~runner:Query.Plain q ~weight:closure ~src ~dst);
                let landmarks =
                  Query.search ~runner:Query.Alt q ~weight:data ~src ~dst
                in
                check_same_search ~what:(what "landmarks") landmarks
                  (Query.run_stats ~runner:Query.Alt q ~weight:closure ~src ~dst);
                let r, _, _ = landmarks in
                if not (same_answer reference r) then
                  Alcotest.failf "%s" (what "landmarks vs single_pair_flat");
                let toward = towards.(dst) in
                let alt = Query.search ~toward q ~weight:data ~src ~dst in
                check_same_search ~what:(what "toward") alt
                  (Query.run_stats ~toward q ~weight:closure ~src ~dst);
                let r, _, _ = alt in
                if not (same_answer reference r) then
                  Alcotest.failf "%s" (what "toward vs single_pair_flat");
                match r with
                | None -> ()
                | Some (cost, path) ->
                  let c1 = Dijkstra.path_cost ~off ~tgt ~weight:data path in
                  let c2 = Dijkstra.path_cost ~off ~tgt ~weight:(Fn closure) path in
                  if bits c1 <> bits cost || bits c2 <> bits cost then
                    Alcotest.failf "%s" (what "path_cost"))
              pairs)
          weights;
        (* Repair under the tick, against a fresh tree and against the
           same repair through closures. *)
        let w_old = Dijkstra.Eq1 { miles; risk; kappa }
        and w_new = Dijkstra.Eq1 { miles; risk = risk'; kappa } in
        for src = 0 to n - 1 do
          let base = Dijkstra.single_source_flat ~n ~off ~tgt ~weight:w_old ~src in
          let repair ~weight ~old_weight =
            Dijkstra.repair ~n ~off ~tgt ~mate ~weight ~old_weight ~changed base
              ~src
          in
          let data_t, data_s = repair ~weight:w_new ~old_weight:w_old in
          let fn_t, fn_s =
            repair ~weight:(Fn (eq1 risk')) ~old_weight:(Fn (eq1 risk))
          in
          let what = Printf.sprintf "repair kappa %g src %d" kappa src in
          check_same_tree ~what data_t
            (Dijkstra.single_source_flat ~n ~off ~tgt ~weight:w_new ~src);
          check_same_tree ~what data_t fn_t;
          if data_s <> fn_s then Alcotest.failf "%s: stats differ" what
        done
      in
      List.iter
        (fun pool -> with_domains pool (fun () ->
             ignore (Parallel.map_array check_kappa (Array.of_list kappas))))
        [ 1; 2; 4 ];
      true)

(* The loops allocate nothing per relaxation under the dev profile
   (every module [-opaque]), which is what the test binaries and the
   benchmark compile: a Level3 tree under [Eq1] and a Level3
   [Router.riskroute ~toward] query each add at most 8 words to their
   loop's minor-words counter. *)
let test_level3_loops_allocate_nothing () =
  let net =
    Option.get (Rr_topology.Zoo.find (Rr_topology.Zoo.shared ()) "Level3")
  in
  let env = Riskroute.Env.of_net net in
  let n = Riskroute.Env.node_count env in
  let off = Riskroute.Env.arc_off env and tgt = Riskroute.Env.arc_tgt env in
  let weight =
    Riskroute.Env.eq1_weight env ~kappa:(Riskroute.Env.mean_kappa env)
  in
  let words name = Rr_obs.Counter.value (Rr_obs.Counter.make name) in
  let added name f =
    let before = words name in
    f ();
    words name - before
  in
  let dst = n - 1 in
  let toward = Riskroute.Router.shortest_tree env ~src:dst in
  Rr_obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Rr_obs.set_enabled false) @@ fun () ->
  (* The first query sizes this domain's workspace. *)
  ignore (Riskroute.Router.riskroute ~toward env ~src:0 ~dst);
  let tree_words =
    added "dijkstra.gc_minor_words" (fun () ->
        ignore (Dijkstra.single_source_flat ~n ~off ~tgt ~weight ~src:17))
  in
  let query_words =
    added "query.gc_minor_words" (fun () ->
        match Riskroute.Router.riskroute ~toward env ~src:17 ~dst with
        | Some _ -> ()
        | None -> Alcotest.fail "Level3 is connected")
  in
  Alcotest.(check bool)
    (Printf.sprintf "tree loop adds %d words (<= 8)" tree_words)
    true (tree_words <= 8);
  Alcotest.(check bool)
    (Printf.sprintf "query loop adds %d words (<= 8)" query_words)
    true (query_words <= 8)

let test_toward_validation () =
  let env = random_env ~seed:3 ~n:12 ~parts:1 in
  let q, off, tgt, miles = query_of_env env in
  let weight k = miles.(k) in
  let tree dst =
    (Dijkstra.single_source_flat ~n:12 ~off ~tgt ~weight:(Miles miles) ~src:dst)
      .Dijkstra.dist
  in
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Query.run: toward has the wrong length") (fun () ->
      ignore (Query.run ~toward:(Array.make 11 0.0) q ~weight ~src:0 ~dst:5));
  Alcotest.check_raises "not rooted at dst"
    (Invalid_argument "Query.run: toward is not rooted at dst") (fun () ->
      ignore (Query.run ~toward:(tree 4) q ~weight ~src:0 ~dst:5));
  (* A pinned runner still validates, and still wins. *)
  Alcotest.check_raises "pinned plain still validates"
    (Invalid_argument "Query.run: toward is not rooted at dst") (fun () ->
      ignore
        (Query.run ~runner:Query.Plain ~toward:(tree 4) q ~weight ~src:0 ~dst:5));
  let _, runner, _ =
    Query.run_stats ~runner:Query.Plain ~toward:(tree 5) q ~weight ~src:0 ~dst:5
  in
  Alcotest.(check string) "explicit runner wins" "plain" (Query.runner_name runner);
  let toward = Rr_obs.Counter.make "query.alt.toward" in
  Rr_obs.set_enabled true;
  let runner, counted =
    Fun.protect ~finally:(fun () -> Rr_obs.set_enabled false) @@ fun () ->
    let before = Rr_obs.Counter.value toward in
    let _, runner, _ = Query.run_stats ~toward:(tree 5) q ~weight ~src:0 ~dst:5 in
    (runner, Rr_obs.Counter.value toward - before)
  in
  Alcotest.(check string) "toward served by alt" "alt" (Query.runner_name runner);
  Alcotest.(check bool) "no landmarks prepared" false (Query.prepared q);
  Alcotest.(check int) "query.alt.toward counted" 1 counted

let runners_agree_under_advisory =
  QCheck.Test.make ~name:"agreement holds under a storm advisory env"
    ~count:4 QCheck.small_nat
    (fun s ->
      let seed = 1 + (s mod 100) in
      let net = builder_net ~seed:(Int64.of_int seed) ~pops:30 in
      let advisory =
        List.nth
          (Rr_forecast.Track.advisories
             (Option.get (Rr_forecast.Track.find "sandy")))
          20
      in
      let env = Riskroute.Env.of_net ~advisory net in
      let q, off, tgt, miles = query_of_env env in
      let n = Query.node_count q in
      Query.prepare q;
      let reference ~weight ~src ~dst =
        Dijkstra.single_pair_flat ~n ~off ~tgt ~weight ~src ~dst
      in
      List.iter
        (fun (wname, weight) ->
          for src = 0 to 4 do
            check_pair ~what:("advisory " ^ wname) q ~off ~tgt ~weight
              ~reference ~src ~dst:(n - 1 - src)
          done)
        (weights_of ~seed env tgt miles);
      true)

let test_disconnected () =
  (* Two components: 0-1 and 2-3. *)
  let g = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  let off, tgt = Graph.to_csr g in
  let miles = Array.make (Array.length tgt) 1.0 in
  let q = Query.create ~n:4 ~off ~tgt ~miles () in
  Query.prepare q;
  List.iter
    (fun runner ->
      Alcotest.(check bool)
        (Query.runner_name runner ^ " disconnected")
        true
        (Query.run ~runner q ~weight:(fun k -> miles.(k)) ~src:0 ~dst:3
        = None))
    [ Query.Plain; Query.Alt ]

let test_src_eq_dst_and_ranges () =
  let net = builder_net ~seed:5L ~pops:20 in
  let env = Riskroute.Env.of_net net in
  let q, _, _, miles = query_of_env env in
  let weight k = miles.(k) in
  Alcotest.(check bool)
    "src = dst" true
    (Query.run q ~weight ~src:3 ~dst:3 = Some (0.0, [ 3 ]));
  Alcotest.check_raises "bad src"
    (Invalid_argument "Dijkstra: source out of range") (fun () ->
      ignore (Query.run q ~weight ~src:(-1) ~dst:3));
  Alcotest.check_raises "bad dst"
    (Invalid_argument "Dijkstra: destination out of range") (fun () ->
      ignore (Query.run q ~weight ~src:0 ~dst:99))

let test_prepare_idempotent () =
  let net = builder_net ~seed:7L ~pops:30 in
  let env = Riskroute.Env.of_net net in
  let q, _, _, _ = query_of_env env in
  Alcotest.(check bool) "not prepared" false (Query.prepared q);
  Alcotest.(check bool) "no potential yet" true
    (Query.potential q ~dst:0 = None);
  Alcotest.(check int) "no landmarks yet" 0
    (Array.length (Query.landmark_sources q));
  Query.prepare q;
  let l1 = Query.landmark_sources q in
  Query.prepare q;
  let l2 = Query.landmark_sources q in
  Alcotest.(check bool) "prepared" true (Query.prepared q);
  Alcotest.(check bool) "landmarks stable" true (l1 = l2);
  Alcotest.(check bool) "landmarks nonempty" true (Array.length l1 > 0)

let test_potential_is_lower_bound () =
  let net = builder_net ~seed:13L ~pops:40 in
  let env = Riskroute.Env.of_net net in
  let q, off, tgt, miles = query_of_env env in
  let n = Query.node_count q in
  Query.prepare q;
  let dst = n - 1 in
  let pot = Option.get (Query.potential q ~dst) in
  (* d(v, dst) in the symmetric bit-miles metric via a sweep from dst. *)
  let tree =
    Dijkstra.single_source_flat ~n ~off ~tgt ~weight:(Miles miles) ~src:dst
  in
  for v = 0 to n - 1 do
    let d = tree.Dijkstra.dist.(v) in
    if Float.is_finite d && pot v > d +. 1e-9 then
      Alcotest.failf "potential %g exceeds true distance %g at node %d"
        (pot v) d v
  done;
  Alcotest.(check (float 1e-12)) "zero at dst" 0.0 (pot dst)

let test_choose_policy () =
  let small = Query.create ~n:4 ~off:[| 0; 0; 0; 0; 0 |] ~tgt:[||]
      ~miles:[||] () in
  Alcotest.(check string) "small -> plain" "plain"
    (Query.runner_name (Query.choose small));
  let net = builder_net ~seed:3L ~pops:25 in
  let env = Riskroute.Env.of_net net in
  let q, _, _, _ = query_of_env env in
  Query.prepare q;
  Alcotest.(check string) "prepared small -> plain still" "plain"
    (Query.runner_name (Query.choose q));
  (* Past 1,024 nodes ALT is chosen whether or not the landmarks are
     ready: the first query prepares them. *)
  let ctx = Rr_engine.Context.create () in
  let q =
    Rr_engine.Context.net_query ctx
      (Rr_engine.Context.continental ctx ~pops:2000)
  in
  Alcotest.(check bool) "continental-2000 unprepared" false (Query.prepared q);
  Alcotest.(check string) "unprepared continental-2000 -> alt" "alt"
    (Query.runner_name (Query.choose q));
  let miles = Query.arc_miles q in
  let _, runner, _ =
    Query.run_stats q ~weight:(fun k -> miles.(k)) ~src:0 ~dst:1999
  in
  Alcotest.(check string) "served by alt" "alt" (Query.runner_name runner);
  Alcotest.(check bool) "prepared on demand" true (Query.prepared q)

let coord lat lon = Rr_geo.Coord.make ~lat ~lon

let mini_peering () =
  let mk name cities =
    let pops =
      Array.of_list
        (List.mapi
           (fun id (city, state, lat, lon) ->
             Rr_topology.Pop.make ~id ~city ~state (coord lat lon))
           cities)
    in
    let graph = Graph.of_edges (Array.length pops) [ (0, 1) ] in
    Rr_topology.Net.make ~name ~tier:Rr_topology.Net.Regional pops graph
  in
  let a =
    mk "NetA"
      [ ("Houston", "TX", 29.76, -95.37); ("Dallas", "TX", 32.78, -96.80) ]
  in
  let b =
    mk "NetB"
      [ ("Dallas", "TX", 32.78, -96.80); ("Austin", "TX", 30.27, -97.74) ]
  in
  { Rr_topology.Peering.nets = [| a; b |]; edges = [ (0, 1) ] }

let test_bgp_unchanged_by_prepare () =
  (* The valley-free lift uses the landmark potential as an A* heuristic
     when available; routes must be identical with and without it. *)
  let merged = Riskroute.Interdomain.merge (mini_peering ()) in
  let env =
    Riskroute.Env.make
      ~graph:(Riskroute.Interdomain.graph merged)
      ~coords:
        [|
          coord 29.76 (-95.37);
          coord 32.78 (-96.8);
          coord 32.78 (-96.8);
          coord 30.27 (-97.74);
        |]
      ~impact:(Array.make 4 0.25)
      ~historical:(Array.make 4 1e-5) ()
  in
  let before = Riskroute.Bgp.shortest merged env ~src:0 ~dst:3 in
  Query.prepare (Riskroute.Env.query env);
  let after = Riskroute.Bgp.shortest merged env ~src:0 ~dst:3 in
  match (before, after) with
  | Some a, Some b ->
    Alcotest.(check (list int)) "same path" a.Riskroute.Router.path
      b.Riskroute.Router.path;
    Alcotest.(check bool) "same cost" true
      (Int64.equal
         (Int64.bits_of_float a.Riskroute.Router.bit_miles)
         (Int64.bits_of_float b.Riskroute.Router.bit_miles))
  | _ -> Alcotest.fail "expected a route both times"

(* A weight function that itself runs a query (and the live plane's
   handler thread, which shares the main domain): the inner query must
   not share the outer's workspace, and both must answer as the plain
   kernel does, as must the next query on the domain. *)
let test_nested_query () =
  let outer_env = Riskroute.Env.of_net (builder_net ~seed:31L ~pops:120) in
  let inner_env = Riskroute.Env.of_net (builder_net ~seed:37L ~pops:300) in
  let reference env ~weight ~src ~dst =
    let q = Riskroute.Env.query env in
    Dijkstra.single_pair_flat ~n:(Query.node_count q) ~off:(Query.arc_off q)
      ~tgt:(Query.arc_tgt q) ~weight ~src ~dst
  in
  let miles env = Query.arc_miles (Riskroute.Env.query env) in
  let outer_miles = miles outer_env and inner_miles = miles inner_env in
  let inner_weight k = inner_miles.(k) in
  (* The outer pair spans the graph, so every runner relaxes many arcs. *)
  let far =
    let q = Riskroute.Env.query outer_env in
    let t =
      Dijkstra.single_source_flat ~n:(Query.node_count q) ~off:(Query.arc_off q)
        ~tgt:(Query.arc_tgt q) ~weight:(Miles outer_miles) ~src:0
    in
    let best = ref 0 in
    Array.iteri
      (fun v d -> if d < infinity && d > t.Dijkstra.dist.(!best) then best := v)
      t.Dijkstra.dist;
    !best
  in
  List.iter
    (fun runner ->
      List.iter
        (fun trigger ->
          let label =
            Printf.sprintf "%s, inner at call %d" (Query.runner_name runner)
              trigger
          in
          let calls = ref 0 and inner_ran = ref false in
          let weight k =
            incr calls;
            if !calls = trigger then begin
              let got =
                Query.run ~runner (Riskroute.Env.query inner_env)
                  ~weight:inner_weight ~src:5 ~dst:290
              in
              if
                not
                  (same_answer
                     (reference inner_env ~weight:inner_weight ~src:5 ~dst:290)
                     got)
              then Alcotest.failf "%s: inner query differs" label;
              inner_ran := true
            end;
            outer_miles.(k)
          in
          let plain k = outer_miles.(k) in
          let got =
            Query.run ~runner (Riskroute.Env.query outer_env) ~weight ~src:0
              ~dst:far
          in
          Alcotest.(check bool) (label ^ ": inner ran") true !inner_ran;
          if not (same_answer (reference outer_env ~weight:plain ~src:0 ~dst:far) got)
          then Alcotest.failf "%s: outer query differs" label;
          let next =
            Query.run ~runner (Riskroute.Env.query outer_env) ~weight:plain
              ~src:7 ~dst:100
          in
          if
            not
              (same_answer (reference outer_env ~weight:plain ~src:7 ~dst:100) next)
          then Alcotest.failf "%s: next query on the domain differs" label)
        [ 1; 9; 25 ])
    [ Query.Plain; Query.Alt ]

let () =
  Alcotest.run "query"
    [
      ( "runners",
        [
          Alcotest.test_case "plain = single_pair_flat" `Quick
            test_plain_matches_flat;
          QCheck_alcotest.to_alcotest runners_agree;
          QCheck_alcotest.to_alcotest toward_agrees;
          Alcotest.test_case "toward validation" `Quick test_toward_validation;
          QCheck_alcotest.to_alcotest runners_agree_under_advisory;
          Alcotest.test_case "disconnected" `Quick test_disconnected;
          Alcotest.test_case "src = dst and ranges" `Quick
            test_src_eq_dst_and_ranges;
          Alcotest.test_case "nested query" `Quick test_nested_query;
        ] );
      ( "weights",
        [
          QCheck_alcotest.to_alcotest data_weights_equal_closures;
          Alcotest.test_case "Level3 loops allocate nothing" `Quick
            test_level3_loops_allocate_nothing;
        ] );
      ( "landmarks",
        [
          Alcotest.test_case "prepare idempotent" `Quick
            test_prepare_idempotent;
          Alcotest.test_case "potential lower-bounds distance" `Quick
            test_potential_is_lower_bound;
          Alcotest.test_case "choose policy" `Quick test_choose_policy;
          Alcotest.test_case "bgp unchanged by prepare" `Quick
            test_bgp_unchanged_by_prepare;
        ] );
    ]
