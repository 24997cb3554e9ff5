(* End-to-end tests over the shared full-size pipeline (Zoo topology,
   215,932-block census, 176k-event catalogue). These are slower than the
   unit suites — everything heavy is built once and memoised. *)

open Riskroute

let zoo () = Rr_topology.Zoo.shared ()

let net name = Option.get (Rr_topology.Zoo.find (zoo ()) name)

(* --- Env.of_net over the full pipeline --- *)

let test_of_net_shapes () =
  let env = Env.of_net (net "AT&T") in
  Alcotest.(check int) "25 nodes" 25 (Env.node_count env);
  Alcotest.(check (float 1e-6)) "impact sums to one" 1.0
    (Rr_util.Arrayx.fsum (Env.impact env));
  Array.iter
    (fun h -> Alcotest.(check bool) "historical risk positive" true (h > 0.0))
    (Env.historical env)

let test_of_net_regional_impact_restricted () =
  (* Epoch is confined to California: the impact of all its PoPs still
     sums to 1 (population restricted to CA). *)
  let env = Env.of_net (net "Epoch") in
  Alcotest.(check (float 1e-6)) "sums to one" 1.0 (Rr_util.Arrayx.fsum (Env.impact env))

let test_gulf_pops_riskier_than_mountain () =
  let riskmap = Rr_disaster.Riskmap.shared () in
  let gulf = Rr_disaster.Riskmap.risk_at riskmap (Rr_geo.Coord.make ~lat:29.95 ~lon:(-90.07)) in
  let mountain = Rr_disaster.Riskmap.risk_at riskmap (Rr_geo.Coord.make ~lat:46.6 ~lon:(-112.0)) in
  Alcotest.(check bool) "New Orleans much riskier than Helena" true
    (gulf > 5.0 *. mountain)

(* --- Table 2 behaviour --- *)

let test_ratios_grow_with_lambda () =
  let n = net "Sprint" in
  let at lambda_h =
    let params = Params.with_lambda_h lambda_h Params.default in
    Ratios.intradomain ~pair_cap:1500 (Env.of_net ~params n)
  in
  let r5 = at 1e5 and r6 = at 1e6 in
  Alcotest.(check bool) "risk reduction grows" true
    (r6.Ratios.risk_reduction > r5.Ratios.risk_reduction);
  Alcotest.(check bool) "distance increase grows" true
    (r6.Ratios.distance_increase > r5.Ratios.distance_increase)

let test_level3_low_ratio () =
  (* the paper's headline ordering: the big dense Level3 network has the
     smallest risk-reduction ratio of the Tier-1s *)
  let ratio name =
    (Ratios.intradomain ~pair_cap:1500 (Env.of_net (net name))).Ratios.risk_reduction
  in
  let level3 = ratio "Level3" in
  Alcotest.(check bool) "Level3 below DT" true (level3 < ratio "Deutsche Telekom");
  Alcotest.(check bool) "Level3 below NTT" true (level3 < ratio "NTT");
  Alcotest.(check bool) "Level3 below Teliasonera" true (level3 < ratio "Teliasonera")

(* --- Fig 7 behaviour --- *)

let test_fig7_risk_aversion_grows () =
  let comparisons =
    Rr_experiments.Fig7.compute
      (Rr_engine.Context.shared ())
      Rr_experiments.Fig7.default_spec
  in
  Alcotest.(check int) "two lambda values" 2 (List.length comparisons);
  List.iter
    (fun (c : Rr_experiments.Fig7.comparison) ->
      Alcotest.(check bool) "riskroute never riskier" true
        (c.Rr_experiments.Fig7.riskroute.Router.bit_risk_miles
        <= c.Rr_experiments.Fig7.shortest.Router.bit_risk_miles +. 1e-6);
      Alcotest.(check bool) "riskroute never shorter" true
        (c.Rr_experiments.Fig7.riskroute.Router.bit_miles
        >= c.Rr_experiments.Fig7.shortest.Router.bit_miles -. 1e-6))
    comparisons;
  match comparisons with
  | [ low; high ] ->
    Alcotest.(check bool) "more risk-averse at higher lambda" true
      (high.Rr_experiments.Fig7.riskroute.Router.bit_miles
      >= low.Rr_experiments.Fig7.riskroute.Router.bit_miles -. 1e-6)
  | _ -> Alcotest.fail "expected exactly two comparisons"

(* --- Fig 6 exposure counts --- *)

let test_fig6_exposure_ordering () =
  let count storm =
    Rr_experiments.Fig6.tier1_pops_in_hurricane_scope
      (Rr_engine.Context.shared ()) storm
  in
  let irene = count Rr_forecast.Track.irene in
  let katrina = count Rr_forecast.Track.katrina in
  let sandy = count Rr_forecast.Track.sandy in
  (* paper: Irene 86, Katrina 8, Sandy 115 — Katrina is by far the most
     localised, Sandy the widest *)
  Alcotest.(check bool) "Katrina most localised" true
    (katrina < irene && katrina < sandy);
  Alcotest.(check bool) "Katrina touches some PoPs" true (katrina > 0);
  Alcotest.(check bool) "Sandy widest" true (sandy >= irene)

(* --- Case studies --- *)

let test_casestudy_tier1_series () =
  let series =
    Casestudy.tier1 ~pair_cap:300 ~tick_stride:10 ~storm:Rr_forecast.Track.katrina
      (net "Deutsche Telekom")
  in
  Alcotest.(check string) "storm name" "KATRINA" series.Casestudy.storm;
  Alcotest.(check int) "strided points" 7 (List.length series.Casestudy.points);
  List.iter
    (fun (p : Casestudy.point) ->
      Alcotest.(check bool) "ratio sane" true
        (p.Casestudy.risk_reduction > -1.0 && p.Casestudy.risk_reduction < 1.0))
    series.Casestudy.points

let peak_ratio net_name storm =
  let n = net net_name in
  let advisories = Rr_forecast.Track.advisories storm in
  let base = Env.of_net n in
  let quiet = Ratios.intradomain ~pair_cap:800 base in
  let peak_advisory =
    Option.get
      (Rr_util.Listx.max_by
         (fun a -> float_of_int (Rr_forecast.Riskfield.pops_in_scope a n))
         advisories)
  in
  let stormy =
    Ratios.intradomain ~pair_cap:800 (Env.with_advisory base (Some peak_advisory))
  in
  (quiet.Ratios.risk_reduction, stormy.Ratios.risk_reduction)

let test_casestudy_forecast_raises_ratio () =
  (* a national Tier-1 with a minority of PoPs in the storm's scope can
     reroute around them: the achievable reduction grows *)
  let quiet, stormy = peak_ratio "AT&T" Rr_forecast.Track.sandy in
  Alcotest.(check bool) "partial exposure raises the ratio" true (stormy > quiet)

let test_casestudy_saturation_lowers_ratio () =
  (* the paper's Sec. 7.3.1 observation: when a majority of a network's
     infrastructure is inside the storm, there is nowhere safe to
     reroute and the reduction ratio falls *)
  let quiet, stormy = peak_ratio "Telepak" Rr_forecast.Track.katrina in
  Alcotest.(check bool) "saturated exposure lowers the ratio" true (stormy < quiet)

let test_in_scope_filter () =
  let selected =
    Casestudy.in_scope_filter ~storm:Rr_forecast.Track.katrina (zoo ()).Rr_topology.Zoo.regionals
  in
  let names = List.map (fun (n, _) -> n.Rr_topology.Net.name) selected in
  (* the Gulf regionals must pass the 20% filter for Katrina *)
  Alcotest.(check bool) "Telepak selected" true (List.mem "Telepak" names);
  (* the New-England network must not *)
  Alcotest.(check bool) "Hibernia not selected" false (List.mem "Hibernia" names);
  List.iter
    (fun (_, fraction) ->
      Alcotest.(check bool) "above filter" true (fraction > 0.2))
    selected

(* --- Interdomain shared pipeline --- *)

let test_interdomain_shared () =
  let merged, env = Interdomain.shared () in
  Alcotest.(check int) "809 nodes" 809 (Interdomain.node_count merged);
  Alcotest.(check int) "455 regional nodes" 455
    (Array.length (Interdomain.regional_nodes merged));
  Alcotest.(check bool) "has peering links" true
    (Interdomain.peering_link_count merged > 0);
  (* impact is per-network and halved: 23 members each summing to 1/2 *)
  Alcotest.(check (float 1e-4)) "merged impact sums to half the member count" 11.5
    (Rr_util.Arrayx.fsum (Env.impact env))

let test_interdomain_bounds () =
  let merged, env = Interdomain.shared () in
  let sources = Interdomain.net_nodes merged 7 (* first regional *) in
  let dests = Interdomain.regional_nodes merged in
  let r = Ratios.between ~pair_cap:150 env ~sources ~dests in
  Alcotest.(check bool) "pairs evaluated" true (r.Ratios.pairs > 0);
  Alcotest.(check bool) "reduction sane" true
    (r.Ratios.risk_reduction > -0.5 && r.Ratios.risk_reduction < 1.0)

let test_peer_advisor_improves () =
  let merged, env = Interdomain.shared () in
  match Peer_advisor.recommend_all ~pair_cap:120 merged env with
  | [] -> Alcotest.fail "expected recommendations"
  | recs ->
    List.iter
      (fun (r : Peer_advisor.recommendation) ->
        Alcotest.(check bool)
          (r.Peer_advisor.regional ^ " non-degrading")
          true
          (r.Peer_advisor.improvement >= -1e-9))
      recs

(* --- Augmentation on a real network --- *)

let test_augment_tier1 () =
  let env = Env.of_net (net "Teliasonera") in
  let picks = Augment.greedy ~k:3 env in
  Alcotest.(check bool) "found links" true (List.length picks >= 1);
  List.iter
    (fun (p : Augment.pick) ->
      Alcotest.(check bool) "strictly improves" true (p.Augment.fraction < 1.0))
    picks

(* --- Experiment registry --- *)

let test_report_registry () =
  (* 3 tables + 13 figures + 14 ablation/extension studies *)
  Alcotest.(check int) "30 experiments" 30 (List.length Rr_experiments.Report.all);
  Alcotest.(check bool) "find table2" true (Rr_experiments.Report.find "TABLE2" <> None);
  Alcotest.(check bool) "unknown" true (Rr_experiments.Report.find "fig99" = None);
  let ids = Rr_experiments.Report.ids () in
  Alcotest.(check bool) "fig13 present" true (List.mem "fig13" ids);
  Alcotest.(check bool) "ablations present" true (List.mem "abl-outage" ids)

let test_fig5_output () =
  let buffer = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buffer in
  Rr_experiments.Fig5.run (Rr_engine.Context.shared ()) ppf;
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buffer in
  let contains needle haystack =
    let nl = String.length needle and hl = String.length haystack in
    let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "mentions Irene" true
    (contains "IRENE" out || contains "Irene" out)

(* --- strike analyses against the per-pair reference ---

   Outagesim and Availability answer the reactive posture with one
   connectivity labelling per strike. The reference below is the
   per-pair search they ran before: every arc into a failed PoP weighs
   infinity, so the search never settles one, and a failed source finds
   nothing. Around it, the two analyses exactly as they were, run
   sequentially. *)

let masked_search_survives env ~failed ~src ~dst =
  let n = Env.node_count env and off = Env.arc_off env in
  let tgt = Env.arc_tgt env and miles = Env.arc_miles env in
  let weight k = if failed.(tgt.(k)) then infinity else miles.(k) in
  (not failed.(src))
  && Rr_graph.Dijkstra.single_pair_flat ~n ~off ~tgt ~weight ~src ~dst <> None

let failed_mask env (s : Outagesim.scenario) =
  let failed = Array.make (Env.node_count env) false in
  List.iter (fun v -> failed.(v) <- true) s.Outagesim.failed_pops;
  failed

let reference_outagesim ~seed ~scenario_count ~pair_cap ~radius_miles ~kind env
    =
  let rng = Rr_util.Prng.create seed in
  let n = Env.node_count env in
  let pairs = Rr_util.Sampling.pair_indices (Rr_util.Prng.split rng) ~n ~cap:pair_cap in
  let static =
    Array.map
      (fun (src, dst) ->
        (src, dst, Router.shortest env ~src ~dst, Router.riskroute env ~src ~dst))
      pairs
  in
  let scenarios =
    Outagesim.sample_scenarios ~rng:(Rr_util.Prng.split rng) ~radius_miles ~kind
      ~count:scenario_count env
  in
  let contribution (s : Outagesim.scenario) =
    let failed = failed_mask env s in
    let path_alive path = List.for_all (fun v -> not failed.(v)) path in
    let alive = function
      | Some (r : Router.route) -> path_alive r.Router.path
      | None -> false
    in
    let live = ref 0 and s_ok = ref 0 and r_ok = ref 0 and re_ok = ref 0 in
    let endpoint_dead = ref 0 in
    Array.iter
      (fun (src, dst, shortest, riskroute) ->
        if failed.(src) || failed.(dst) then incr endpoint_dead
        else begin
          incr live;
          if alive shortest then incr s_ok;
          if alive riskroute then incr r_ok;
          if
            s.Outagesim.failed_pops = []
            || masked_search_survives env ~failed ~src ~dst
          then incr re_ok
        end)
      static;
    let total = Array.length static in
    if total = 0 then (0.0, 0.0, 0.0, 0.0)
    else begin
      let endpoint = float_of_int !endpoint_dead /. float_of_int total in
      if !live = 0 then (0.0, 0.0, 0.0, endpoint)
      else
        let l = float_of_int !live in
        ( float_of_int !s_ok /. l,
          float_of_int !r_ok /. l,
          float_of_int !re_ok /. l,
          endpoint )
    end
  in
  let s = ref 0.0 and r = ref 0.0 and re = ref 0.0 and e = ref 0.0 in
  List.iter
    (fun scenario ->
      let a, b, c, d = contribution scenario in
      s := !s +. a;
      r := !r +. b;
      re := !re +. c;
      e := !e +. d)
    scenarios;
  let count = float_of_int (List.length scenarios) in
  {
    Outagesim.scenarios = List.length scenarios;
    pairs = Array.length pairs;
    shortest_survival = !s /. count;
    riskroute_survival = !r /. count;
    reactive_survival = !re /. count;
    endpoint_loss = !e /. count;
  }

let reference_availability ~seed ~samples ~pair_cap ~radius_miles ~kind env =
  let rng = Rr_util.Prng.create seed in
  let n = Env.node_count env in
  let pairs = Rr_util.Sampling.pair_indices (Rr_util.Prng.split rng) ~n ~cap:pair_cap in
  let static =
    Array.map
      (fun (src, dst) ->
        (src, dst, Router.shortest env ~src ~dst, Router.riskroute env ~src ~dst))
      pairs
  in
  let scenarios =
    Outagesim.sample_scenarios ~rng:(Rr_util.Prng.split rng) ~radius_miles ~kind
      ~count:samples env
  in
  let np = Array.length static in
  let down_shortest = Array.make np 0
  and down_riskroute = Array.make np 0
  and down_reactive = Array.make np 0 in
  List.iter
    (fun (s : Outagesim.scenario) ->
      if s.Outagesim.failed_pops <> [] then begin
        let failed = failed_mask env s in
        let path_alive path = List.for_all (fun v -> not failed.(v)) path in
        Array.iteri
          (fun i (src, dst, shortest, riskroute) ->
            let endpoint_dead = failed.(src) || failed.(dst) in
            let static_down = function
              | _ when endpoint_dead -> true
              | Some (r : Router.route) -> not (path_alive r.Router.path)
              | None -> true
            in
            let bump a = a.(i) <- a.(i) + 1 in
            if static_down shortest then bump down_shortest;
            if static_down riskroute then bump down_riskroute;
            if endpoint_dead || not (masked_search_survives env ~failed ~src ~dst)
            then bump down_reactive)
          static
      end)
    scenarios;
  let events_per_year =
    float_of_int (Rr_disaster.Event.paper_count kind) /. 41.0
  in
  let availability down =
    let mean_p =
      Rr_util.Arrayx.fmean
        (Array.map (fun d -> float_of_int d /. float_of_int samples) down)
    in
    let downtime_hours = events_per_year *. mean_p *. 12.0 in
    Float.max 0.0 (1.0 -. (downtime_hours /. (365.25 *. 24.0)))
  in
  {
    Availability.pairs = np;
    events_per_year;
    mttr_hours = 12.0;
    shortest = availability down_shortest;
    riskroute = availability down_riskroute;
    reactive = availability down_reactive;
  }

let with_domains k f =
  let old = Rr_util.Parallel.domain_count () in
  Rr_util.Parallel.set_domain_count k;
  Fun.protect ~finally:(fun () -> Rr_util.Parallel.set_domain_count old) f

let bits = Int64.bits_of_float

let outagesim_fields (r : Outagesim.result) =
  ( r.Outagesim.scenarios,
    r.Outagesim.pairs,
    List.map bits
      [
        r.Outagesim.shortest_survival; r.Outagesim.riskroute_survival;
        r.Outagesim.reactive_survival; r.Outagesim.endpoint_loss;
      ] )

let availability_fields (a : Availability.result) =
  ( a.Availability.pairs,
    List.map bits
      [
        a.Availability.events_per_year; a.Availability.mttr_hours;
        a.Availability.shortest; a.Availability.riskroute;
        a.Availability.reactive;
      ] )

(* The seven Tier-1s and three regionals, every strike kind, radii from
   a single metro to half the continent, pools 1/2/4: both analyses
   equal the per-pair reference on every field, floats bitwise. *)
let test_strike_analyses_match_reference () =
  let nets =
    List.map (fun n -> n.Rr_topology.Net.name) (zoo ()).Rr_topology.Zoo.tier1s
    @ [ "Abilene"; "Epoch"; "Iris" ]
  in
  let case = ref 0 in
  List.iter
    (fun name ->
      let env = Env.of_net (net name) in
      List.iter
        (fun kind ->
          List.iter
            (fun radius_miles ->
              incr case;
              let seed = Int64.of_int (0x5171 + !case) in
              let label =
                Printf.sprintf "%s %s %.0f mi" name
                  (Rr_disaster.Event.kind_name kind)
                  radius_miles
              in
              let sim =
                outagesim_fields
                  (reference_outagesim ~seed ~scenario_count:30 ~pair_cap:40
                     ~radius_miles ~kind env)
              in
              let avail =
                availability_fields
                  (reference_availability ~seed ~samples:30 ~pair_cap:30
                     ~radius_miles ~kind env)
              in
              List.iter
                (fun domains ->
                  with_domains domains (fun () ->
                      let rng () = Rr_util.Prng.create seed in
                      if
                        outagesim_fields
                          (Outagesim.run ~rng:(rng ()) ~scenario_count:30
                             ~pair_cap:40 ~radius_miles ~kind env)
                        <> sim
                      then
                        Alcotest.failf "Outagesim.run differs: %s, %d domains"
                          label domains;
                      if
                        availability_fields
                          (Availability.run ~rng:(rng ()) ~samples:30
                             ~pair_cap:30 ~radius_miles ~kind env)
                        <> avail
                      then
                        Alcotest.failf "Availability.run differs: %s, %d domains"
                          label domains))
                [ 1; 2; 4 ])
            [ 20.0; 80.0; 250.0; 600.0 ])
        Rr_disaster.Event.all_kinds)
    nets;
  Alcotest.(check int) "cases" 200 !case

(* The candidate scan runs its rows on the pool. Against the sequential
   double loop it replaced (same pairs consed in the same order, so the
   stable sort keeps ties and the 400-candidate cut in place), and
   Level3's five greedy picks, tier1-plan's workload, bitwise at pools
   1/2/4. *)
let reference_candidates env =
  let graph = Env.graph env in
  let n = Env.node_count env in
  let off = Env.arc_off env and tgt = Env.arc_tgt env in
  let miles = Env.arc_miles env in
  let scored = ref [] in
  for u = 0 to n - 1 do
    let dist =
      (Rr_graph.Dijkstra.single_source_flat ~n ~off ~tgt
         ~weight:(Fn (fun k -> miles.(k)))
         ~src:u)
        .Rr_graph.Dijkstra.dist
    in
    for v = u + 1 to n - 1 do
      if not (Rr_graph.Graph.has_edge graph u v) then begin
        let direct = Env.link_miles env u v in
        let current = dist.(v) in
        if current < infinity && direct < 0.5 *. current then
          scored := (current -. direct, (u, v)) :: !scored
      end
    done
  done;
  List.sort (fun (a, _) (b, _) -> Float.compare b a) !scored
  |> Rr_util.Listx.take 400
  |> List.map snd

(* Greedy picks (u-v:total_after:fraction, in hex) as the insertion
   kernel computed them when it nested [Float.min]: comparing each
   via-term against the current entry must keep every bit of them, at
   every pool size. *)
let pinned_picks =
  [
    ( "Level3",
      [
        "172-198:0x1.78e92fd5826aep+26:0x1.fcd9156fb9a19p-1";
        "109-184:0x1.7740622748096p+26:0x1.fa9b94175f897p-1";
        "51-198:0x1.76b5693f8779dp+26:0x1.f9dff58b04c82p-1";
        "184-224:0x1.76387e2440168p+26:0x1.f93750329719fp-1";
        "29-121:0x1.75f8865d9f9e3p+26:0x1.f8e0f41b0bbeap-1";
      ] );
    ( "AT&T",
      [
        "13-24:0x1.d68b3eaeb2542p+20:0x1.cb75e73bcbc62p-1";
        "14-24:0x1.c2688daa2acc7p+20:0x1.b7cca0961297ap-1";
        "1-13:0x1.b68173887af8dp+20:0x1.ac2d4c3b7904ep-1";
        "5-24:0x1.ad9174e9035d8p+20:0x1.a3733207e6b82p-1";
        "20-24:0x1.a6c9adcd2e32ap+20:0x1.9cd44d855a165p-1";
      ] );
    ( "Tinet",
      [
        "20-30:0x1.250721a84b8a3p+22:0x1.d5233262fb6b2p-1";
        "15-20:0x1.2007958182d2ep+22:0x1.cd22a44e26a6ap-1";
        "17-20:0x1.1e24505f081e7p+22:0x1.ca1ced384d114p-1";
      ] );
  ]

let check_pinned_picks ~domains name env =
  Alcotest.(check (list string))
    (Printf.sprintf "%s picks, %d domains" name domains)
    (List.assoc name pinned_picks)
    (List.map
       (fun (p : Augment.pick) ->
         Printf.sprintf "%d-%d:%h:%h" p.Augment.u p.Augment.v p.Augment.total_after
           p.Augment.fraction)
       (Augment.greedy ~k:5 env))

let test_augment_pool_sizes () =
  let env = Env.of_net (net "Level3") in
  let reference = reference_candidates env in
  List.iter
    (fun domains ->
      with_domains domains (fun () ->
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "candidates, %d domains" domains)
            reference (Augment.candidates env);
          check_pinned_picks ~domains "Level3" env))
    [ 1; 2; 4 ]

let test_augment_pinned_picks () =
  List.iter
    (fun name ->
      let env = Env.of_net (net name) in
      List.iter
        (fun domains ->
          with_domains domains (fun () -> check_pinned_picks ~domains name env))
        [ 1; 2; 4 ])
    [ "AT&T"; "Tinet" ]

(* Ratios routes each pair as A* toward its destination's tree. The
   reference is the sweep it replaced, literally and sequentially: one
   plain per-pair RiskRoute search and one shortest-path tree per
   source, with the samplers and sums of intradomain, weighted and
   between copied beside it. *)
let reference_pair_routes env pairs =
  let n = Env.node_count env in
  let off = Env.arc_off env and tgt = Env.arc_tgt env in
  let miles = Env.arc_miles env and risk = Env.arc_risk env in
  let source_trees = Hashtbl.create 64 in
  Array.map
    (fun (src, dst) ->
      if src = dst then None
      else begin
        let tree =
          match Hashtbl.find_opt source_trees src with
          | Some tree -> tree
          | None ->
            let tree = Router.shortest_tree env ~src in
            Hashtbl.add source_trees src tree;
            tree
        in
        let kappa = Env.kappa env src dst in
        let weight k = miles.(k) +. (kappa *. risk.(k)) in
        match
          ( Rr_graph.Dijkstra.single_pair_flat ~n ~off ~tgt ~weight ~src ~dst,
            Router.shortest_of_tree env tree ~src ~dst )
        with
        | Some (rr_risk, path), Some sp ->
          Some
            ( rr_risk,
              Metric.bit_miles env path,
              sp.Router.bit_risk_miles,
              sp.Router.bit_miles )
        | _ -> None
      end)
    pairs

let reference_accumulate routed ~diagonal_share =
  let risk_sum = ref 0.0 and dist_sum = ref 0.0 and count = ref 0 in
  Array.iter
    (function
      | Some (rr_risk, rr_miles, sp_risk, sp_miles)
        when sp_risk > 0.0 && sp_miles > 0.0 ->
        risk_sum := !risk_sum +. (rr_risk /. sp_risk);
        dist_sum := !dist_sum +. (rr_miles /. sp_miles);
        incr count
      | _ -> ())
    routed;
  if !count = 0 then (0.0, 0.0, 0)
  else begin
    let n = float_of_int !count in
    let off_diagonal = 1.0 -. diagonal_share in
    ( 1.0 -. (!risk_sum /. n *. off_diagonal),
      (!dist_sum /. n *. off_diagonal) -. 1.0,
      !count )
  end

let ratios_seed = 0x4A71_05L

let reference_intradomain ~pair_cap env =
  let n = Env.node_count env in
  let pairs =
    Rr_util.Sampling.pair_indices (Rr_util.Prng.create ratios_seed) ~n
      ~cap:pair_cap
  in
  reference_accumulate
    (reference_pair_routes env pairs)
    ~diagonal_share:(1.0 /. float_of_int n)

let reference_weighted ~pair_cap ~weight env =
  let n = Env.node_count env in
  let pairs =
    Rr_util.Sampling.pair_indices (Rr_util.Prng.create ratios_seed) ~n
      ~cap:pair_cap
  in
  let routed = reference_pair_routes env pairs in
  let risk_sum = ref 0.0 and dist_sum = ref 0.0 in
  let weight_sum = ref 0.0 and count = ref 0 in
  Array.iteri
    (fun i (src, dst) ->
      let w = weight src dst in
      if src <> dst && w > 0.0 then
        match routed.(i) with
        | Some (rr_risk, rr_miles, sp_risk, sp_miles)
          when sp_risk > 0.0 && sp_miles > 0.0 ->
          risk_sum := !risk_sum +. (w *. rr_risk /. sp_risk);
          dist_sum := !dist_sum +. (w *. rr_miles /. sp_miles);
          weight_sum := !weight_sum +. w;
          incr count
        | _ -> ())
    pairs;
  if !weight_sum <= 0.0 then (0.0, 0.0, 0)
  else
    ( 1.0 -. (!risk_sum /. !weight_sum),
      (!dist_sum /. !weight_sum) -. 1.0,
      !count )

let reference_between ~pair_cap env ~sources ~dests =
  let ns = Array.length sources and nd = Array.length dests in
  let total = ns * nd in
  let pairs =
    if total <= pair_cap then begin
      let out = ref [] in
      Array.iter
        (fun s -> Array.iter (fun d -> if s <> d then out := (s, d) :: !out) dests)
        sources;
      Array.of_list !out
    end
    else begin
      let rng = Rr_util.Prng.create ratios_seed in
      let seen = Hashtbl.create (2 * pair_cap) in
      let out = ref [] and k = ref 0 and attempts = ref 0 in
      while !k < pair_cap && !attempts < 50 * pair_cap do
        incr attempts;
        let s = sources.(Rr_util.Prng.int rng ns) in
        let d = dests.(Rr_util.Prng.int rng nd) in
        if s <> d && not (Hashtbl.mem seen (s, d)) then begin
          Hashtbl.add seen (s, d) ();
          out := (s, d) :: !out;
          incr k
        end
      done;
      Array.of_list !out
    end
  in
  let overlap =
    Array.fold_left
      (fun acc s -> if Array.mem s dests then acc + 1 else acc)
      0 sources
  in
  reference_accumulate
    (reference_pair_routes env pairs)
    ~diagonal_share:(float_of_int overlap /. float_of_int total)

let ratios_fields (r : Ratios.result) =
  (bits r.Ratios.risk_reduction, bits r.Ratios.distance_increase, r.Ratios.pairs)

let reference_fields (rr, dr, pairs) = (bits rr, bits dr, pairs)

let test_ratios_match_reference () =
  let pair_cap = 6000 in
  let check label expect got =
    if reference_fields expect <> ratios_fields got then
      Alcotest.failf "%s differs from the per-pair reference" label
  in
  List.iter
    (fun (tier1 : Rr_topology.Net.t) ->
      let name = tier1.Rr_topology.Net.name in
      let tm =
        Rr_topology.Traffic.gravity
          ~populations:(Rr_census.Service.shared_fractions tier1)
          tier1
      in
      let weight i j = Rr_topology.Traffic.demand tm i j in
      List.iter
        (fun lambda_h ->
          let env =
            Env.of_net ~params:(Params.with_lambda_h lambda_h Params.default) tier1
          in
          let intra = reference_intradomain ~pair_cap env in
          let weighted = reference_weighted ~pair_cap ~weight env in
          List.iter
            (fun domains ->
              with_domains domains (fun () ->
                  let label what =
                    Printf.sprintf "%s %s, lambda_h %g, %d domains" what name
                      lambda_h domains
                  in
                  let ctx = Rr_engine.Context.create () in
                  let trees = Rr_engine.Context.dist_trees ctx env in
                  check (label "intradomain") intra
                    (Ratios.intradomain ~pair_cap env);
                  check (label "intradomain, cached trees") intra
                    (Ratios.intradomain ~pair_cap ~trees env);
                  check (label "weighted") weighted
                    (Ratios.weighted ~pair_cap ~trees ~weight env)))
            [ 1; 2; 4 ])
        [ 1e5; 1e6 ])
    (zoo ()).Rr_topology.Zoo.tier1s;
  (* Fig. 8's sweep: each regional's PoPs to every regional PoP on the
     merged interdomain graph, at its default cap. *)
  let merged, env = Interdomain.shared () in
  let nets = (Interdomain.peering merged).Rr_topology.Peering.nets in
  let dests = Interdomain.regional_nodes merged in
  let regionals = ref 0 in
  Array.iteri
    (fun i (member : Rr_topology.Net.t) ->
      if member.Rr_topology.Net.tier = Rr_topology.Net.Regional then begin
        incr regionals;
        let sources = Interdomain.net_nodes merged i in
        let expect = reference_between ~pair_cap:1200 env ~sources ~dests in
        List.iter
          (fun domains ->
            with_domains domains (fun () ->
                let label =
                  Printf.sprintf "between %s, %d domains"
                    member.Rr_topology.Net.name domains
                in
                let ctx = Rr_engine.Context.create () in
                let trees = Rr_engine.Context.dist_trees ctx env in
                check label expect
                  (Ratios.between ~pair_cap:1200 env ~sources ~dests);
                check (label ^ ", cached trees") expect
                  (Ratios.between ~pair_cap:1200 ~trees env ~sources ~dests)))
          [ 1; 2; 4 ]
      end)
    nets;
  Alcotest.(check bool) "regional sweeps" true (!regionals > 0)

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "of_net shapes" `Slow test_of_net_shapes;
          Alcotest.test_case "regional impact" `Slow test_of_net_regional_impact_restricted;
          Alcotest.test_case "gulf risk dominates" `Slow test_gulf_pops_riskier_than_mountain;
        ] );
      ( "table2",
        [
          Alcotest.test_case "ratios grow with lambda" `Slow test_ratios_grow_with_lambda;
          Alcotest.test_case "Level3 lowest" `Slow test_level3_low_ratio;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig7 risk aversion" `Slow test_fig7_risk_aversion_grows;
          Alcotest.test_case "fig6 exposure ordering" `Slow test_fig6_exposure_ordering;
          Alcotest.test_case "fig5 output" `Slow test_fig5_output;
        ] );
      ( "casestudy",
        [
          Alcotest.test_case "tier-1 series" `Slow test_casestudy_tier1_series;
          Alcotest.test_case "forecast raises ratio" `Slow test_casestudy_forecast_raises_ratio;
          Alcotest.test_case "saturation lowers ratio" `Slow test_casestudy_saturation_lowers_ratio;
          Alcotest.test_case "20% scope filter" `Slow test_in_scope_filter;
        ] );
      ( "interdomain",
        [
          Alcotest.test_case "shared pipeline" `Slow test_interdomain_shared;
          Alcotest.test_case "bounds" `Slow test_interdomain_bounds;
          Alcotest.test_case "peer advisor" `Slow test_peer_advisor_improves;
        ] );
      ( "augment",
        [
          Alcotest.test_case "tier-1 greedy" `Slow test_augment_tier1;
          Alcotest.test_case "Level3 pool sizes" `Slow test_augment_pool_sizes;
          Alcotest.test_case "AT&T and Tinet picks pinned" `Slow
            test_augment_pinned_picks;
        ] );
      ( "strikes",
        [
          Alcotest.test_case "per-pair reference" `Slow
            test_strike_analyses_match_reference;
        ] );
      ( "ratios",
        [
          Alcotest.test_case "per-pair reference" `Slow
            test_ratios_match_reference;
        ] );
      ( "registry",
        [ Alcotest.test_case "report registry" `Quick test_report_registry ] );
    ]
