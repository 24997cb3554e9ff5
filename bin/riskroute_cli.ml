(* riskroute — command-line front end.

   Subcommands:
     networks               list the 23-network corpus
     route                  RiskRoute vs shortest path between two cities
     ratios                 intradomain risk/distance ratios for a network
     provision              best additional links for a network
     peers                  best new peering per regional network
     forecast               parse / summarise a storm's advisory sequence
     simulate               Monte Carlo outage simulation
     backup                 fast-reroute repair paths for a flow
     pareto                 distance/risk trade-off curve
     shared-risk            joint disaster exposure of two networks
     availability           achieved availability (nines) per posture
     export-gml             write a network map as Topology Zoo GML
     export-geojson         write a network map as GeoJSON
     report                 reproduce a paper table/figure (or all)
     dashboard              render a series/bench JSON as offline HTML *)

open Cmdliner

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_arg =
  let doc = "Enable verbose logging." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let telemetry_arg =
  let doc =
    "Record engine telemetry (counters, histograms, spans) and dump it on \
     exit. $(docv) is a file path (a .prom suffix selects Prometheus text \
     format, anything else JSON) or '-' to write JSON to stderr. Setting \
     RISKROUTE_TELEMETRY=<spec> in the environment is equivalent."
  in
  Arg.(value & opt (some string) None & info [ "telemetry" ] ~docv:"FILE" ~doc)

let trace_arg =
  let doc =
    "Record the span tree and write it as Chrome trace-event JSON to $(docv) \
     on exit; load it in chrome://tracing or https://ui.perfetto.dev. Each \
     pool domain gets its own track. Setting RISKROUTE_TRACE=<path> in the \
     environment is equivalent, and --telemetry composes with it (the trace \
     never writes to stderr)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let live_arg =
  let doc =
    "Serve the live observability plane on 127.0.0.1:$(docv) for the \
     duration of the run: GET /metrics (Prometheus), /healthz (liveness + \
     span-stall watchdog), /stats (engine cache snapshot), /flight (recent \
     events). Port 0 picks an ephemeral port. Setting RISKROUTE_LIVE=<port> \
     in the environment is equivalent. Output is unchanged by serving."
  in
  Arg.(value & opt (some int) None & info [ "live" ] ~docv:"PORT" ~doc)

let series_arg =
  let doc =
    "Sample the telemetry registries, GC counters and engine cache stats \
     on a background thread (RISKROUTE_SAMPLE_PERIOD seconds apart, \
     default 1) into a bounded ring, and dump the ring as JSON to $(docv) \
     on exit ('-' for stderr). Also starts the Runtime_events consumer \
     that turns GC pauses into gc.pause.* histograms. Setting \
     RISKROUTE_SERIES=<spec> in the environment is equivalent; render the \
     dump with `riskroute dashboard`."
  in
  Arg.(value & opt (some string) None & info [ "series" ] ~docv:"FILE" ~doc)

(* Every subcommand takes --telemetry, --trace, --live and --series:
   observability must not require knowing in advance which entry point
   will be slow. *)
let setup verbose telemetry trace live series =
  setup_logs verbose;
  (match trace with None -> () | Some path -> Rr_obs.enable_trace path);
  (match telemetry with
  | None -> ()
  | Some spec ->
    Rr_obs.enable_dump spec;
    Rr_obs.set_meta "domains"
      (string_of_int (Rr_util.Parallel.domain_count ())));
  Rr_live.set_stats_provider (fun () ->
      Rr_engine.Context.stats_json (Rr_engine.Context.shared ()));
  Rr_live.set_explain_provider (fun q ->
      Rr_explain.of_query (Rr_engine.Context.shared ()) q);
  Rr_obs.Series.set_stats_provider (fun () ->
      Rr_engine.Context.stats_fields (Rr_engine.Context.shared ()));
  Rr_obs.Schema.register "stats" 1;
  Rr_obs.Schema.register "explain" Rr_explain.schema_version;
  Rr_obs.Schema.register "provenance" 1;
  (match series with None -> () | Some spec -> Rr_obs.Series.enable spec);
  (match live with
  | None -> ()
  | Some port -> (
    match Rr_live.start ~port () with
    | Ok bound ->
      Rr_obs.Log.infof
        "riskroute: live introspection listening on http://127.0.0.1:%d/"
        bound
    | Error msg ->
      Rr_obs.Log.errorf "riskroute: %s" msg;
      exit 1));
  Rr_live.autostart_from_env ()

let setup_term =
  Term.(
    const setup $ verbose_arg $ telemetry_arg $ trace_arg $ live_arg
    $ series_arg)

let net_arg =
  let doc = "Network name (e.g. Level3, AT&T, Telepak)." in
  Arg.(required & opt (some string) None & info [ "n"; "network" ] ~doc)

let lambda_h_arg =
  let doc = "Historical risk-averseness tuning parameter lambda_h." in
  Arg.(value & opt float 1e5 & info [ "lambda-h" ] ~doc)

let storm_arg =
  let doc = "Storm name: irene, katrina or sandy." in
  Arg.(value & opt string "sandy" & info [ "storm" ] ~doc)

let ctx () = Rr_engine.Context.shared ()

let find_net name =
  match Rr_engine.Context.net (ctx ()) name with
  | Some net -> Ok net
  | None ->
    Error
      (Printf.sprintf "unknown network %S; try `riskroute networks`" name)

let find_storm name =
  match Rr_forecast.Track.find name with
  | Some storm -> Ok storm
  | None -> Error (Printf.sprintf "unknown storm %S (irene|katrina|sandy)" name)

let or_die = function
  | Ok v -> v
  | Error msg ->
    Rr_obs.Log.errorf "riskroute: %s" msg;
    exit 1

(* An analysis that rejects its inputs with [Invalid_argument] exits
   like any other user error instead of crashing. *)
let or_die_invalid f =
  match f () with v -> v | exception Invalid_argument msg -> or_die (Error msg)

(* --- networks --- *)

let networks_cmd =
  let run () =
    let zoo = Rr_engine.Context.zoo (ctx ()) in
    Format.printf "Tier-1 networks:@.";
    List.iter
      (fun net -> Format.printf "  %a@." Rr_topology.Net.pp_summary net)
      zoo.Rr_topology.Zoo.tier1s;
    Format.printf "Regional networks:@.";
    List.iter
      (fun net -> Format.printf "  %a@." Rr_topology.Net.pp_summary net)
      zoo.Rr_topology.Zoo.regionals;
    Format.printf
      "Synthetic: continental-<pops> (merged CONUS graph built on demand, \
       e.g. `riskroute route -n continental-10000`)@."
  in
  Cmd.v
    (Cmd.info "networks" ~doc:"List the 23-network corpus.")
    Term.(const run $ setup_term)

(* --- route --- *)

(* "continental-<pops>" ([Rr_explain.continental_pops]) selects the
   synthetic merged CONUS topology of that size (built on demand,
   memoised in the shared context) instead of a corpus network. It is
   routed through the context's cached Env and that Env's query facade,
   so each search can report its runner and settled count. *)
let route_continental ~pops ~src ~dst ~lambda_h =
  let c = ctx () in
  let net = Rr_engine.Context.continental c ~pops in
  let pop_id city =
    or_die
      (match Rr_topology.Net.find_pop net ~city with
      | Some i -> Ok i
      | None ->
        Error (Printf.sprintf "no %s PoP in continental-%d" city pops))
  in
  let src_id = pop_id src and dst_id = pop_id dst in
  let params = Riskroute.Params.with_lambda_h lambda_h Riskroute.Params.default in
  let env = Rr_engine.Context.env ~params c net in
  let q = Rr_engine.Context.query c env in
  let w_miles = Rr_graph.Dijkstra.Miles (Riskroute.Env.arc_miles env) in
  let w_risk =
    Riskroute.Env.eq1_weight env ~kappa:(Riskroute.Env.kappa env src_id dst_id)
  in
  Rr_graph.Query.prepare q;
  let path_cost weight path =
    Rr_graph.Dijkstra.path_cost ~off:(Riskroute.Env.arc_off env)
      ~tgt:(Riskroute.Env.arc_tgt env) ~weight path
  in
  let describe label weight =
    match Rr_graph.Query.search q ~weight ~src:src_id ~dst:dst_id with
    | None, _, _ ->
      or_die (Error (Printf.sprintf "%s and %s are disconnected" src dst))
    | Some (_, path), runner, settled ->
      let names =
        List.map (fun i -> (Rr_topology.Net.pop net i).Rr_topology.Pop.name) path
      in
      Format.printf
        "%s (%.0f bit-miles, %.0f bit-risk-miles) [%s, %d settled]:@.  %s@."
        label (path_cost w_miles path) (path_cost w_risk path)
        (Rr_graph.Query.runner_name runner)
        settled
        (String.concat " -> " names)
  in
  Format.printf "continental-%d: %d PoPs, %d landmarks@." pops
    (Rr_graph.Query.node_count q)
    (Array.length (Rr_graph.Query.landmark_sources q));
  describe "shortest " w_miles;
  describe "riskroute" w_risk

let route_cmd =
  let src_arg =
    Arg.(required & opt (some string) None & info [ "from" ] ~doc:"Source city.")
  in
  let dst_arg =
    Arg.(required & opt (some string) None & info [ "to" ] ~doc:"Destination city.")
  in
  let storm_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "storm" ] ~doc:"Overlay a storm advisory (irene|katrina|sandy).")
  in
  let tick_arg =
    Arg.(value & opt int 40 & info [ "tick" ] ~doc:"Advisory index for --storm.")
  in
  let run () name src dst lambda_h storm tick =
    match or_die (Rr_explain.continental_pops name) with
    | Some pops -> route_continental ~pops ~src ~dst ~lambda_h
    | None ->
    let net = or_die (find_net name) in
    let params = Riskroute.Params.with_lambda_h lambda_h Riskroute.Params.default in
    let advisory =
      Option.map
        (fun s ->
          let storm = or_die (find_storm s) in
          let advisories = Array.of_list (Rr_forecast.Track.advisories storm) in
          if tick < 0 || tick >= Array.length advisories then
            or_die (Error "advisory tick out of range")
          else advisories.(tick))
        storm
    in
    let env = Rr_engine.Context.env ~params ?advisory (ctx ()) net in
    (* Wires the env's query facade into the context's tree LRU so any
       landmark preparation is cached across invocations in-process. *)
    ignore (Rr_engine.Context.query (ctx ()) env);
    let src_id = or_die (match Rr_topology.Net.find_pop net ~city:src with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "no %s PoP in %s" src name)) in
    let dst_id = or_die (match Rr_topology.Net.find_pop net ~city:dst with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "no %s PoP in %s" dst name)) in
    let describe label = function
      | None ->
        or_die (Error (Printf.sprintf "%s and %s are disconnected" src dst))
      | Some (route : Riskroute.Router.route) ->
        let names =
          List.map
            (fun i -> (Rr_topology.Net.pop net i).Rr_topology.Pop.name)
            route.Riskroute.Router.path
        in
        Format.printf "%s (%.0f bit-miles, %.0f bit-risk-miles):@.  %s@." label
          route.Riskroute.Router.bit_miles route.Riskroute.Router.bit_risk_miles
          (String.concat " -> " names)
    in
    describe "shortest " (Riskroute.Router.shortest env ~src:src_id ~dst:dst_id);
    describe "riskroute" (Riskroute.Router.riskroute env ~src:src_id ~dst:dst_id)
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:"Compare RiskRoute and shortest-path routes between two PoPs.")
    Term.(
      const run $ setup_term $ net_arg $ src_arg $ dst_arg $ lambda_h_arg
      $ storm_opt $ tick_arg)

(* --- explain --- *)

let explain_cmd =
  let net_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NETWORK"
          ~doc:"Network name (corpus entry or continental-<pops>, \
                1 <= pops <= 50000).")
  in
  let src_pos =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"SRC" ~doc:"Source PoP (city name or numeric id).")
  in
  let dst_pos =
    Arg.(
      required
      & pos 2 (some string) None
      & info [] ~docv:"DST" ~doc:"Destination PoP (city name or numeric id).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the schema'd JSON provenance record instead of the \
             human-readable tables (floats printed exactly, %.17g).")
  in
  let storm_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "storm" ]
          ~doc:"Overlay a storm advisory (irene|katrina|sandy).")
  in
  let tick_arg =
    Arg.(value & opt int 40 & info [ "tick" ] ~doc:"Advisory index for --storm.")
  in
  let lambda_opt =
    Arg.(
      value
      & opt (some float) None
      & info [ "lambda-h" ]
          ~doc:"Historical risk-averseness tuning parameter lambda_h.")
  in
  let top_k_arg =
    Arg.(
      value & opt int 5
      & info [ "top-k" ] ~doc:"How many top risk PoPs/arcs to rank.")
  in
  let run () net src dst lambda_h storm tick top_k json =
    match
      Rr_explain.explain_named ?lambda_h ?storm ~tick ~top_k (ctx ()) ~net ~src
        ~dst
    with
    | Error msg -> or_die (Error msg)
    | Ok t ->
      if json then print_string (Rr_explain.to_json t)
      else Format.printf "%a" Rr_explain.pp t
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain a route: per-arc Eq. 1 decomposition, the risk-detour \
          diff against the shortest path, top risk contributors, and \
          computation provenance.")
    Term.(
      const run $ setup_term $ net_pos $ src_pos $ dst_pos $ lambda_opt
      $ storm_opt $ tick_arg $ top_k_arg $ json_arg)

(* --- env --- *)

let env_cmd =
  let run () =
    Format.printf "%-26s %-24s %s@." "variable" "current" "default";
    List.iter
      (fun (v : Rr_obs.Envvar.t) ->
        let current =
          match Rr_obs.Envvar.raw v with
          | None -> "(unset)"
          | Some s -> Printf.sprintf "%S" s
        in
        Format.printf "%-26s %-24s %s@." v.Rr_obs.Envvar.name current
          v.Rr_obs.Envvar.default;
        Format.printf "%-26s   %s@." "" v.Rr_obs.Envvar.doc)
      Rr_obs.Envvar.all
  in
  Cmd.v
    (Cmd.info "env"
       ~doc:
         "List every recognized RISKROUTE_* environment variable with its \
          current value and default.")
    Term.(const run $ setup_term)

(* --- ratios --- *)

let ratios_cmd =
  let pair_cap_arg =
    Arg.(value & opt int 6000 & info [ "pair-cap" ] ~doc:"Max sampled pairs.")
  in
  let run () name lambda_h pair_cap =
    let net = or_die (find_net name) in
    let params = Riskroute.Params.with_lambda_h lambda_h Riskroute.Params.default in
    let ctx = ctx () in
    let env = Rr_engine.Context.env ~params ctx net in
    let r =
      Riskroute.Ratios.intradomain ~pair_cap
        ~trees:(Rr_engine.Context.dist_trees ctx env)
        env
    in
    Format.printf
      "%s (lambda_h = %.0e): risk reduction %.3f, distance increase %.3f (%d pairs)@."
      name lambda_h r.Riskroute.Ratios.risk_reduction
      r.Riskroute.Ratios.distance_increase r.Riskroute.Ratios.pairs
  in
  Cmd.v
    (Cmd.info "ratios" ~doc:"Intradomain risk/distance ratios (Eqs. 5-6).")
    Term.(const run $ setup_term $ net_arg $ lambda_h_arg $ pair_cap_arg)

(* --- provision --- *)

let provision_cmd =
  let k_arg =
    Arg.(value & opt int 5 & info [ "k" ] ~doc:"Number of links to suggest.")
  in
  let run () name k =
    let net = or_die (find_net name) in
    let ctx = ctx () in
    let env = Rr_engine.Context.env ctx net in
    let picks =
      Riskroute.Augment.greedy ~k
        ~dist_trees:(Rr_engine.Context.dist_trees ctx env)
        ~risk_trees:(Rr_engine.Context.risk_trees ctx env)
        env
    in
    Format.printf "Best %d additional links for %s:@." (List.length picks) name;
    List.iteri
      (fun i (p : Riskroute.Augment.pick) ->
        Format.printf "  %d. %s -- %s (bit-risk at %.3f of original)@." (i + 1)
          (Rr_topology.Net.pop net p.Riskroute.Augment.u).Rr_topology.Pop.name
          (Rr_topology.Net.pop net p.Riskroute.Augment.v).Rr_topology.Pop.name
          p.Riskroute.Augment.fraction)
      picks
  in
  Cmd.v
    (Cmd.info "provision" ~doc:"Suggest risk-reducing additional links (Eq. 4).")
    Term.(const run $ setup_term $ net_arg $ k_arg)

(* --- peers --- *)

let peers_cmd =
  let run () =
    let merged, env = Rr_engine.Context.interdomain (ctx ()) in
    List.iter
      (fun (r : Riskroute.Peer_advisor.recommendation) ->
        Format.printf "%-18s -> peer with %-18s (%.1f%% lower bit-risk)@."
          r.Riskroute.Peer_advisor.regional r.Riskroute.Peer_advisor.peer
          (100.0 *. r.Riskroute.Peer_advisor.improvement))
      (Riskroute.Peer_advisor.recommend_all merged env)
  in
  Cmd.v
    (Cmd.info "peers" ~doc:"Recommend new peerings for regional networks.")
    Term.(const run $ setup_term)

(* --- forecast --- *)

let forecast_cmd =
  let run () storm_name =
    let storm = or_die (find_storm storm_name) in
    let advisories = Rr_forecast.Track.advisories storm in
    Format.printf "Hurricane %s: %d advisories@." storm.Rr_forecast.Track.name
      (List.length advisories);
    List.iter
      (fun (a : Rr_forecast.Advisory.t) ->
        Format.printf "  %a@." Rr_forecast.Advisory.pp a)
      advisories
  in
  Cmd.v
    (Cmd.info "forecast" ~doc:"Parse and list a storm's advisory sequence.")
    Term.(const run $ setup_term $ storm_arg)

(* --- export-gml --- *)

let export_gml_cmd =
  let out_arg =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file.")
  in
  let run () name path =
    let net = or_die (find_net name) in
    Rr_topology.Gml_io.to_file path net;
    Format.printf "wrote %s (%d PoPs, %d links) to %s@." name
      (Rr_topology.Net.pop_count net)
      (Rr_topology.Net.link_count net)
      path
  in
  Cmd.v
    (Cmd.info "export-gml" ~doc:"Export a network as Topology Zoo GML.")
    Term.(const run $ setup_term $ net_arg $ out_arg)

(* --- simulate --- *)

let simulate_cmd =
  let scenarios_arg =
    Arg.(value & opt int 200 & info [ "scenarios" ] ~doc:"Number of disaster strikes.")
  in
  let radius_arg =
    Arg.(value & opt float 80.0 & info [ "radius" ] ~doc:"Damage radius in miles.")
  in
  let kind_arg =
    Arg.(value & opt string "hurricane"
         & info [ "kind" ] ~doc:"Strike kind: hurricane, tornado or storm.")
  in
  let run () name scenarios radius kind =
    let net = or_die (find_net name) in
    let kind =
      match String.lowercase_ascii kind with
      | "hurricane" -> Rr_disaster.Event.Fema_hurricane
      | "tornado" -> Rr_disaster.Event.Fema_tornado
      | "storm" -> Rr_disaster.Event.Fema_storm
      | other -> or_die (Error (Printf.sprintf "unknown strike kind %S" other))
    in
    let env = Rr_engine.Context.env (ctx ()) net in
    let r =
      or_die_invalid (fun () ->
          Riskroute.Outagesim.run ~scenario_count:scenarios ~radius_miles:radius
            ~kind env)
    in
    Format.printf
      "%s under %d %s strikes (radius %.0f mi):@.  static shortest survival  %.3f@.  static riskroute survival %.3f@.  reactive rerouting        %.3f@.  endpoint loss             %.3f@."
      name r.Riskroute.Outagesim.scenarios
      (Rr_disaster.Event.kind_name kind)
      radius r.Riskroute.Outagesim.shortest_survival
      r.Riskroute.Outagesim.riskroute_survival
      r.Riskroute.Outagesim.reactive_survival r.Riskroute.Outagesim.endpoint_loss
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Monte Carlo outage simulation of static routes.")
    Term.(const run $ setup_term $ net_arg $ scenarios_arg $ radius_arg $ kind_arg)

(* --- backup --- *)

let backup_cmd =
  let src_arg =
    Arg.(required & opt (some string) None & info [ "from" ] ~doc:"Source city.")
  in
  let dst_arg =
    Arg.(required & opt (some string) None & info [ "to" ] ~doc:"Destination city.")
  in
  let run () name src dst =
    let net = or_die (find_net name) in
    let env = Rr_engine.Context.env (ctx ()) net in
    let pop_id city =
      or_die
        (match Rr_topology.Net.find_pop net ~city with
        | Some i -> Ok i
        | None -> Error (Printf.sprintf "no %s PoP in %s" city name))
    in
    let src = pop_id src and dst = pop_id dst in
    match Riskroute.Backup.plan env ~src ~dst with
    | None -> or_die (Error "source and destination are disconnected")
    | Some plan ->
      let name_of i = (Rr_topology.Net.pop net i).Rr_topology.Pop.name in
      Format.printf "primary (%.0f bit-miles): %s@."
        plan.Riskroute.Backup.primary.Riskroute.Router.bit_miles
        (String.concat " -> "
           (List.map name_of plan.Riskroute.Backup.primary.Riskroute.Router.path));
      List.iter
        (fun (r : Riskroute.Backup.repair) ->
          let what =
            match (r.Riskroute.Backup.failed_link, r.Riskroute.Backup.failed_node) with
            | Some (u, v), _ -> Printf.sprintf "link %s--%s" (name_of u) (name_of v)
            | None, Some v -> Printf.sprintf "node %s" (name_of v)
            | None, None -> "?"
          in
          match r.Riskroute.Backup.route with
          | Some route ->
            Format.printf "  on %-40s repair via %d hops (%.0f bit-miles)@." what
              (List.length route.Riskroute.Router.path - 1)
              route.Riskroute.Router.bit_miles
          | None -> Format.printf "  on %-40s NO REPAIR (partition)@." what)
        plan.Riskroute.Backup.repairs;
      Format.printf "coverage %.0f%%, worst stretch %.2fx@."
        (100.0 *. Riskroute.Backup.coverage plan)
        (Riskroute.Backup.worst_stretch plan)
  in
  Cmd.v
    (Cmd.info "backup" ~doc:"Pre-compute fast-reroute repair paths for a flow.")
    Term.(const run $ setup_term $ net_arg $ src_arg $ dst_arg)

(* --- pareto --- *)

let pareto_cmd =
  let src_arg =
    Arg.(required & opt (some string) None & info [ "from" ] ~doc:"Source city.")
  in
  let dst_arg =
    Arg.(required & opt (some string) None & info [ "to" ] ~doc:"Destination city.")
  in
  let run () name src dst =
    let net = or_die (find_net name) in
    let env = Rr_engine.Context.env (ctx ()) net in
    let pop_id city =
      or_die
        (match Rr_topology.Net.find_pop net ~city with
        | Some i -> Ok i
        | None -> Error (Printf.sprintf "no %s PoP in %s" city name))
    in
    let frontier =
      Riskroute.Pareto.frontier env ~src:(pop_id src) ~dst:(pop_id dst)
    in
    if frontier = [] then
      or_die (Error (Printf.sprintf "%s and %s are disconnected" src dst));
    Format.printf "%d non-dominated routes %s -> %s on %s:@."
      (List.length frontier) src dst name;
    List.iter
      (fun (p : Riskroute.Pareto.point) ->
        Format.printf "  %7.0f bit-miles  risk %9.0f  (%d hops)@."
          p.Riskroute.Pareto.bit_miles p.Riskroute.Pareto.risk
          (List.length p.Riskroute.Pareto.path - 1))
      frontier;
    match Riskroute.Pareto.knee frontier with
    | Some k ->
      Format.printf "suggested knee: %.0f bit-miles at risk %.0f@."
        k.Riskroute.Pareto.bit_miles k.Riskroute.Pareto.risk
    | None -> ()
  in
  Cmd.v
    (Cmd.info "pareto" ~doc:"Distance/risk trade-off curve between two PoPs.")
    Term.(const run $ setup_term $ net_arg $ src_arg $ dst_arg)

(* --- export-geojson --- *)

let export_geojson_cmd =
  let out_arg =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file.")
  in
  let run () name path =
    let net = or_die (find_net name) in
    Rr_topology.Geo_export.to_file path net;
    Format.printf "wrote %s as GeoJSON to %s@." name path
  in
  Cmd.v
    (Cmd.info "export-geojson" ~doc:"Export a network map as GeoJSON.")
    Term.(const run $ setup_term $ net_arg $ out_arg)

(* --- shared-risk --- *)

let shared_risk_cmd =
  let other_arg =
    Arg.(required & opt (some string) None & info [ "with" ] ~doc:"Second network.")
  in
  let run () name other =
    let a = or_die (find_net name) and b = or_die (find_net other) in
    let riskmap = Rr_engine.Context.riskmap (ctx ()) in
    let corr = Riskroute.Shared_risk.exposure_correlation ~riskmap a b in
    let j =
      Riskroute.Shared_risk.joint_outage ~kind:Rr_disaster.Event.Fema_hurricane a b
    in
    Format.printf "exposure correlation %s / %s: %.3f@." name other corr;
    Format.printf
      "hurricane strikes: P(%s hit)=%.3f P(%s hit)=%.3f P(both)=%.3f gap=%.3f@."
      name j.Riskroute.Shared_risk.a_hit other j.Riskroute.Shared_risk.b_hit
      j.Riskroute.Shared_risk.both_hit j.Riskroute.Shared_risk.independence_gap
  in
  Cmd.v
    (Cmd.info "shared-risk" ~doc:"Shared disaster exposure of two networks.")
    Term.(const run $ setup_term $ net_arg $ other_arg)

(* --- availability --- *)

let availability_cmd =
  let mttr_arg =
    Arg.(value & opt float 12.0 & info [ "mttr" ] ~doc:"Mean time to repair, hours.")
  in
  let run () name mttr =
    let net = or_die (find_net name) in
    let env = Rr_engine.Context.env (ctx ()) net in
    let a =
      or_die_invalid (fun () -> Riskroute.Availability.run ~mttr_hours:mttr env)
    in
    Format.printf
      "%s (%.1f strikes/year, %.0f h MTTR):@." name
      a.Riskroute.Availability.events_per_year a.Riskroute.Availability.mttr_hours;
    List.iter
      (fun (label, v) ->
        Format.printf "  %-18s %.6f  (%.2f nines, %.0f min downtime/yr)@." label v
          (Riskroute.Availability.nines v)
          (Riskroute.Availability.downtime_minutes_per_year v))
      [
        ("static shortest", a.Riskroute.Availability.shortest);
        ("static riskroute", a.Riskroute.Availability.riskroute);
        ("reactive", a.Riskroute.Availability.reactive);
      ]
  in
  Cmd.v
    (Cmd.info "availability" ~doc:"Achieved availability (nines) per routing posture.")
    Term.(const run $ setup_term $ net_arg $ mttr_arg)

(* --- report --- *)

(* Provenance records for the route-producing case studies, attached
   after the report so stdout stays byte-identical: fig7's two lambda
   settings on the canonical Level3 Houston-Boston pair, and the same
   pair under each hurricane's advisory overlay for the fig12/fig13
   case studies. Every record re-derives from the shared context's
   caches, so attaching them costs no extra env builds beyond the
   advisory overlays. *)
let provenance_records exp =
  let c = ctx () in
  let wants id = String.equal exp "all" || String.equal exp id in
  let records = ref [] in
  let add experiment label result =
    match result with
    | Ok t -> records := (experiment, label, Rr_explain.to_json t) :: !records
    | Error msg ->
      Rr_obs.Log.warnf "riskroute: provenance %s/%s: %s" experiment label msg
  in
  if wants "fig7" then
    List.iter
      (fun lambda_h ->
        add "fig7"
          (Printf.sprintf "lambda_h=%.0e" lambda_h)
          (Rr_explain.explain_named ~lambda_h c ~net:"Level3" ~src:"Houston"
             ~dst:"Boston"))
      [ 1e4; 1e5 ];
  if wants "fig12" || wants "fig13" then
    List.iter
      (fun (s : Rr_forecast.Track.storm) ->
        add "fig12"
          (String.lowercase_ascii s.Rr_forecast.Track.name)
          (Rr_explain.explain_named ~storm:s.Rr_forecast.Track.name c
             ~net:"Level3" ~src:"Houston" ~dst:"Boston"))
      Rr_forecast.Track.all;
  List.rev !records

let write_provenance exp path =
  let records = provenance_records exp in
  let b = Buffer.create 8192 in
  Buffer.add_string b "{\"schema\": 1, \"experiments\": [";
  List.iteri
    (fun i (experiment, label, json) ->
      Buffer.add_string b (if i = 0 then "\n" else ",\n");
      Buffer.add_string b
        (Printf.sprintf "{\"experiment\": %S, \"label\": %S, \"record\": "
           experiment label);
      Buffer.add_string b (String.trim json);
      Buffer.add_string b "}")
    records;
  Buffer.add_string b (if records = [] then "]}\n" else "\n]}\n");
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents b))

let report_cmd =
  let exp_arg =
    Arg.(value & pos 0 string "all" & info [] ~docv:"EXPERIMENT"
           ~doc:"Experiment id (table1..fig13) or 'all'.")
  in
  let provenance_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "provenance" ] ~docv:"FILE"
          ~doc:
            "After the report, write route-provenance records (schema'd \
             JSON, see `riskroute explain`) for the case-study experiments \
             to $(docv). Report output is unchanged by this flag.")
  in
  let run () exp provenance =
    let ppf = Format.std_formatter in
    (if String.equal exp "all" then Rr_experiments.Report.run_all (ctx ()) ppf
     else
       match Rr_experiments.Report.find exp with
       | Some e -> Rr_experiments.Report.run_timed e (ctx ()) ppf
       | None ->
         or_die
           (Error
              (Printf.sprintf "unknown experiment %S (try: %s)" exp
                 (String.concat " " (Rr_experiments.Report.ids ())))));
    Format.pp_print_flush ppf ();
    match provenance with None -> () | Some path -> write_provenance exp path
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Reproduce a paper table or figure.")
    Term.(const run $ setup_term $ exp_arg $ provenance_arg)

(* --- bench-compare --- *)

let bench_compare_cmd =
  let baseline_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"BASELINE" ~doc:"Baseline BENCH_*.json (the reference).")
  in
  let current_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"CURRENT" ~doc:"Current BENCH_*.json (the candidate).")
  in
  let threshold_arg =
    let doc =
      "Base noise threshold tau: a kernel regresses when its current p50 \
       exceeds baseline p50 by more than tau plus the baseline's own \
       measured spread (p95/p50 - 1, capped at 0.5)."
    in
    Arg.(value & opt float 0.25 & info [ "threshold" ] ~docv:"TAU" ~doc)
  in
  let run () baseline current tau_base =
    let load path =
      match Rr_perf.Benchfile.read path with
      | Ok f -> f
      | Error msg -> or_die (Error msg)
    in
    let base = load baseline and cur = load current in
    List.iter
      (fun msg -> Rr_obs.Log.warnf "riskroute: warning: %s" msg)
      (Rr_perf.Compare.meta_warnings base.Rr_perf.Benchfile.meta
         cur.Rr_perf.Benchfile.meta);
    let rows = Rr_perf.Compare.run ~tau_base base cur in
    Rr_perf.Compare.pp_table Format.std_formatter rows;
    Format.pp_print_flush Format.std_formatter ();
    if Rr_perf.Compare.any_regression rows then exit 3
  in
  Cmd.v
    (Cmd.info "bench-compare"
       ~doc:
         "Compare two bench JSON files kernel by kernel; exit 3 when any \
          kernel regressed past its noise threshold.")
    Term.(const run $ setup_term $ baseline_arg $ current_arg $ threshold_arg)

(* --- dashboard --- *)

let dashboard_cmd =
  let input_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"INPUT"
          ~doc:
            "A telemetry series dump (--series / RISKROUTE_SERIES) or a \
             BENCH_*.json benchmark file; the flavour is detected from the \
             document shape.")
  in
  let output_arg =
    let doc =
      "Output HTML path; defaults to $(i,INPUT) with its .json suffix \
       replaced by .html."
    in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run () input output =
    let output =
      match output with
      | Some o -> o
      | None ->
        (if Filename.check_suffix input ".json" then
           Filename.chop_suffix input ".json"
         else input)
        ^ ".html"
    in
    let text =
      let ic = open_in_bin input in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Rr_perf.Dashboard.render ~source:(Filename.basename input) text with
    | Error msg -> or_die (Error msg)
    | Ok html ->
      let oc = open_out_bin output in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc html);
      Printf.printf "wrote %s (%d bytes)\n" output (String.length html)
  in
  Cmd.v
    (Cmd.info "dashboard"
       ~doc:
         "Render a telemetry series dump or bench JSON file as a \
          self-contained offline HTML dashboard (inline SVG, no external \
          assets).")
    Term.(const run $ setup_term $ input_arg $ output_arg)

(* --- replay --- *)

let replay_cmd =
  let mode_arg =
    let doc = "Advisory stepping mode: full (rebuild the environment \
               every tick) or incremental (risk-field delta + env patch \
               + tree repair). The per-tick output is byte-identical \
               either way; only the work differs." in
    Arg.(value & opt string "incremental" & info [ "mode" ] ~doc)
  in
  let pairs_arg =
    let doc = "Flow pairs to track (default: RISKROUTE_REPLAY_PAIRS or 8)." in
    Arg.(value & opt (some int) None & info [ "pairs" ] ~doc)
  in
  let ticks_arg =
    let doc = "Cap on advisory ticks (default: RISKROUTE_REPLAY_TICKS or \
               the whole season)." in
    Arg.(value & opt (some int) None & info [ "ticks" ] ~doc)
  in
  let summary_arg =
    let doc = "Write the work-accounting summary JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "summary" ] ~docv:"FILE" ~doc)
  in
  let run () name storm_name mode pairs ticks summary =
    let mode =
      or_die
        (match Rr_experiments.Replay.mode_of_string mode with
        | Some m -> Ok m
        | None ->
          Error (Printf.sprintf "unknown mode %S (full|incremental)" mode))
    in
    let storm = or_die (find_storm storm_name) in
    let net =
      match or_die (Rr_explain.continental_pops name) with
      | Some pops -> Rr_engine.Context.continental (ctx ()) ~pops
      | None -> or_die (find_net name)
    in
    let t =
      Rr_experiments.Replay.run ~mode ?pairs ?ticks (ctx ()) ~net ~storm
    in
    print_string (Rr_experiments.Replay.render t);
    match summary with
    | None -> ()
    | Some file ->
      let oc = open_out file in
      output_string oc (Rr_experiments.Replay.summary_json t);
      close_out oc
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Stream a storm's advisory season through the engine tick-by-tick, \
          reporting per-tick route churn and risk detours. --mode compares \
          the full-rebuild path against the incremental \
          delta/patch/repair path; their outputs must match bytewise.")
    Term.(
      const run $ setup_term $ net_arg $ storm_arg $ mode_arg $ pairs_arg
      $ ticks_arg $ summary_arg)

let main_cmd =
  let doc = "RiskRoute: mitigate network outage threats (CoNEXT'13 reproduction)." in
  Cmd.group
    (Cmd.info "riskroute" ~version:"1.0.0" ~doc)
    [
      networks_cmd; route_cmd; explain_cmd; env_cmd; ratios_cmd;
      provision_cmd; peers_cmd; forecast_cmd; export_gml_cmd; report_cmd;
      simulate_cmd; backup_cmd; pareto_cmd; export_geojson_cmd;
      shared_risk_cmd; availability_cmd; bench_compare_cmd; dashboard_cmd;
      replay_cmd;
    ]

(* [~catch:false]: let exceptions escape to the runtime's uncaught
   handler, where Rr_obs writes the flight-recorder post-mortem dump
   before the default backtrace — cmdliner's own catch would swallow
   the crash upstream of it. *)
let () = exit (Cmd.eval ~catch:false main_cmd)
