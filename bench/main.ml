(* Benchmark and reproduction harness.

   Usage:
     main.exe                 run every table/figure, then the Bechamel suite
     main.exe <id> [<id>...]  run selected experiments (table1..fig13)
     main.exe bechamel        run only the Bechamel microbenchmark suite
     main.exe json [file] [--label L] [--reps N] [--warmups N]
                              run the statistics suite (N warmed repetitions
                              per kernel, mean/p50/p95 + GC deltas) and write
                              it as JSON (default BENCH.json, or
                              BENCH_<label>.json with --label)
     main.exe report-twice    run the full report twice in one process and
                              verify the warm pass is byte-identical and
                              actually served from the engine caches
     main.exe list            list experiment ids

   [--telemetry <file|->] anywhere on the command line enables the
   Rr_obs engine telemetry dump; [--trace <file>] writes a Chrome
   trace-event JSON of the span tree on exit; [--live <port>] serves the
   live observability plane for the duration of the run; [--series
   <file|->] starts the background time-series sampler and the
   Runtime_events GC-pause consumer and dumps the ring at exit (same
   semantics as the CLI flags and RISKROUTE_TELEMETRY / RISKROUTE_TRACE /
   RISKROUTE_LIVE / RISKROUTE_SERIES). *)

open Bechamel
open Toolkit

(* --- kernels: one named thunk per table/figure hot path ---

   The same list backs both harnesses: the Bechamel suite (OLS
   throughput estimates for humans) and the statistics suite (recorded
   repetitions for BENCH_*.json baselines and `riskroute
   bench-compare`). *)

let ctx () = Rr_engine.Context.shared ()

let net_env name =
  let ctx = ctx () in
  Rr_engine.Context.env ctx (Rr_engine.Context.require_net ctx name)

let dijkstra_kernels () =
  let env = net_env "Level3" in
  let n = Riskroute.Env.node_count env in
  [
    ( "table2/riskroute-pair-level3",
      fun () -> ignore (Riskroute.Router.riskroute env ~src:0 ~dst:(n - 1)) );
    ( "table2/shortest-pair-level3",
      fun () -> ignore (Riskroute.Router.shortest env ~src:0 ~dst:(n - 1)) );
  ]

let kde_kernels () =
  let catalog = Rr_disaster.Catalog.generate ~scale:0.02 () in
  let events = Rr_disaster.Catalog.coords catalog Rr_disaster.Event.Fema_storm in
  let density = Rr_kde.Density.fit ~bandwidth:24.38 events in
  let point = Rr_geo.Coord.make ~lat:39.0 ~lon:(-95.0) in
  [
    ("table1/kde-exact-eval", fun () -> ignore (Rr_kde.Density.eval density point));
    ( "fig4/kde-grid-fit",
      fun () ->
        ignore
          (Rr_kde.Grid_density.fit ~rows:60 ~cols:140 ~bandwidth:24.38 events) );
    ( "table1/cv-bandwidth-select",
      fun () ->
        ignore
          (Rr_kde.Bandwidth.select ~max_events:150
             ~candidates:[| 10.0; 30.0; 90.0 |] events) );
  ]

let forecast_kernels () =
  let text = List.nth (Rr_forecast.Track.advisory_texts Rr_forecast.Track.sandy) 40 in
  [ ("fig5/advisory-parse", fun () -> ignore (Rr_forecast.Parse.advisory text)) ]

let census_kernels () =
  let blocks = Rr_census.Synthetic.generate ~blocks:5_000 () in
  let att = Rr_engine.Context.require_net (ctx ()) "AT&T" in
  let sites =
    Array.map (fun (p : Rr_topology.Pop.t) -> p.Rr_topology.Pop.coord)
      att.Rr_topology.Net.pops
  in
  [
    ( "fig3/nn-assignment-5k-blocks",
      fun () -> ignore (Rr_census.Assignment.fractions ~sites blocks) );
  ]

let augment_kernels () =
  let env = net_env "AT&T" in
  [
    ("fig9/greedy-one-link-att", fun () -> ignore (Riskroute.Augment.greedy ~k:1 env));
    ( "fig10/total-bit-risk-att",
      fun () -> ignore (Riskroute.Augment.total_bit_risk env) );
  ]

let ratio_kernels () =
  let env = net_env "AT&T" in
  let advisory = List.nth (Rr_forecast.Track.advisories Rr_forecast.Track.sandy) 50 in
  [
    ( "table2/intradomain-ratios-att",
      fun () -> ignore (Riskroute.Ratios.intradomain ~pair_cap:200 env) );
    ( "fig12/advisory-env-refresh",
      fun () -> ignore (Riskroute.Env.with_advisory env (Some advisory)) );
  ]

let gml_kernels () =
  let att = Rr_engine.Context.require_net (ctx ()) "AT&T" in
  let text = Rr_gml.Printer.to_string (Rr_topology.Gml_io.to_gml att) in
  [ ("fig1/gml-parse-att", fun () -> ignore (Rr_gml.Parser.parse text)) ]

let extension_kernels () =
  let att = Rr_engine.Context.require_net (ctx ()) "AT&T" in
  let env = Rr_engine.Context.env (ctx ()) att in
  let n = Riskroute.Env.node_count env in
  [
    ( "abl-pareto/frontier-att",
      fun () -> ignore (Riskroute.Pareto.frontier ~k:8 env ~src:0 ~dst:(n - 1)) );
    ( "abl-backup/plan-att",
      fun () -> ignore (Riskroute.Backup.plan env ~src:0 ~dst:(n - 1)) );
    ("abl-ospf/weights-att", fun () -> ignore (Riskroute.Ospf.link_weights env));
    ( "abl-outage/50-scenarios-att",
      fun () ->
        ignore (Riskroute.Outagesim.run ~scenario_count:50 ~pair_cap:50 env) );
    ( "fig1/geojson-export-att",
      fun () ->
        ignore
          (Rr_geo.Geojson.feature_collection
             (Rr_topology.Geo_export.net_features att)) );
  ]

(* Goal-directed query kernels over continental-scale merged graphs.
   Landmark preparation happens at setup so the timed region is the
   query alone; each kernel routes the same deterministic pair set
   through one runner. *)
let query_pop_sizes = [ 1_000; 10_000; 50_000 ]

let query_pairs = 4

let query_pair_set ~n ~seed =
  let rng = Rr_util.Prng.create seed in
  Array.init query_pairs (fun _ ->
      let src = Rr_util.Prng.int rng n in
      let rec draw () =
        let dst = Rr_util.Prng.int rng n in
        if dst = src then draw () else dst
      in
      (src, draw ()))

let query_kernels () =
  let ctx = ctx () in
  List.concat_map
    (fun pops ->
      let net = Rr_engine.Context.continental ctx ~pops in
      let q = Rr_engine.Context.net_query ctx net in
      Rr_graph.Query.prepare q;
      let n = Rr_graph.Query.node_count q in
      let weight = Rr_graph.Dijkstra.Miles (Rr_graph.Query.arc_miles q) in
      let pairs = query_pair_set ~n ~seed:0xBE5C_0DEL in
      let kernel runner =
        fun () ->
          Array.iter
            (fun (src, dst) ->
              ignore (Rr_graph.Query.search ~runner q ~weight ~src ~dst))
            pairs
      in
      let label r = Printf.sprintf "query/%s-%dk" r (pops / 1000) in
      [
        (label "plain", kernel Rr_graph.Query.Plain);
        (label "alt", kernel Rr_graph.Query.Alt);
      ])
    query_pop_sizes

(* Full-season-prefix storm replay, full rebuild vs incremental
   delta/patch/repair — the macro benchmark the delta engine exists
   for. Each invocation gets a fresh context (the replay's work
   accounting and caching behaviour must not leak across runs); the
   shared corpus singletons are reused underneath. *)
let replay_kernels () =
  let net = Rr_engine.Context.require_net (ctx ()) "Level3" in
  let storm = Rr_forecast.Track.sandy in
  let kernel mode () =
    let c = Rr_engine.Context.create () in
    ignore (Rr_experiments.Replay.run ~mode ~pairs:4 ~ticks:40 c ~net ~storm)
  in
  [
    ("replay-full/sandy-level3", kernel Rr_experiments.Replay.Full);
    ("replay-incremental/sandy-level3", kernel Rr_experiments.Replay.Incremental);
  ]

let kernels () =
  dijkstra_kernels () @ kde_kernels () @ forecast_kernels () @ census_kernels ()
  @ augment_kernels () @ ratio_kernels () @ gml_kernels ()
  @ extension_kernels () @ query_kernels () @ replay_kernels ()

(* --- Bechamel microbenchmark suite --- *)

let bechamel_suite () =
  List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) (kernels ())

let bechamel_estimates () =
  let tests = Test.make_grouped ~name:"riskroute" ~fmt:"%s/%s" (bechamel_suite ()) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name v acc ->
        match Analyze.OLS.estimates v with
        | Some [ est ] -> (name, est) :: acc
        | Some _ | None -> acc)
      results []
  in
  List.sort compare rows

let run_bechamel () =
  print_endline "\n=== Bechamel microbenchmark suite ===";
  List.iter
    (fun (name, est) ->
      if est >= 1e9 then Printf.printf "%-48s %10.2f s/run\n" name (est /. 1e9)
      else if est >= 1e6 then Printf.printf "%-48s %10.2f ms/run\n" name (est /. 1e6)
      else if est >= 1e3 then Printf.printf "%-48s %10.2f us/run\n" name (est /. 1e3)
      else Printf.printf "%-48s %10.0f ns/run\n" name est)
    (bechamel_estimates ())

(* The current git revision — shared with /healthz via Rr_obs (read
   straight off .git, dependency- and subprocess-free). *)
let git_rev () = Rr_obs.git_rev ()

(* --- statistics suite: BENCH_*.json for the regression sentinel ---

   Each kernel runs [warmups] unrecorded then [reps] recorded times;
   mean/p50/p95/min/max and per-run GC deltas are stored per kernel (see
   Rr_perf.Harness). The meta block is self-describing — OCaml version,
   word size, the RISKROUTE_DOMAINS value and the pool size actually
   resolved — so baselines recorded on different machines stay
   comparable (and comparably *incomparable*: bench-compare can say why
   two files should not be trusted against each other). *)

let cache_totals (s : Rr_engine.Context.stats) =
  (s.env_hits + s.tree_hits, s.env_misses + s.tree_misses)

(* GC pause quantiles (ns) from the Runtime_events consumer; all-zero
   when the consumer never ran (no --series) or recorded nothing. *)
let gc_pause_quantiles name =
  ignore (Rr_obs.Rte.poll ());
  let s = Rr_obs.Histogram.snapshot (Rr_obs.Histogram.make name) in
  let q p =
    let v = Rr_obs.Histogram.quantile s p *. 1e9 in
    if Float.is_nan v then 0.0 else v
  in
  (q 0.5, q 0.99)

let run_json ~reps ~warmups file =
  let ctx = ctx () in
  let h0, m0 = cache_totals (Rr_engine.Context.stats ctx) in
  let results = Rr_perf.Harness.measure ~warmups ~reps (kernels ()) in
  let h1, m1 = cache_totals (Rr_engine.Context.stats ctx) in
  let minor_p50, minor_p99 = gc_pause_quantiles Rr_obs.Rte.minor_name in
  let major_p50, major_p99 = gc_pause_quantiles Rr_obs.Rte.major_name in
  let meta =
    {
      Rr_perf.Benchfile.schema = Rr_perf.Benchfile.schema;
      domains = Rr_util.Parallel.domain_count ();
      git_rev = git_rev ();
      hostname = Unix.gethostname ();
      ocaml_version = Sys.ocaml_version;
      word_size = Sys.word_size;
      riskroute_domains =
        Option.value (Sys.getenv_opt "RISKROUTE_DOMAINS") ~default:"";
      reps;
      warmups;
      cache_hits = h1 - h0;
      cache_misses = m1 - m0;
      tree_cache_cap = Rr_engine.Context.tree_cache_capacity ctx;
      topology_pops =
        String.concat "," (List.map string_of_int query_pop_sizes);
      gc_minor_pause_p50_ns = minor_p50;
      gc_minor_pause_p99_ns = minor_p99;
      gc_major_pause_p50_ns = major_p50;
      gc_major_pause_p99_ns = major_p99;
    }
  in
  Rr_perf.Benchfile.write file { Rr_perf.Benchfile.meta; results };
  Printf.printf "wrote %s (%d kernels, %d reps each)\n" file
    (List.length results) reps

(* json subcommand arguments: positional FILE plus --label/--reps/--warmups
   in any order. --label L names the file BENCH_<L>.json unless an
   explicit FILE was also given. *)
let parse_json_args rest =
  let file = ref None
  and label = ref None
  and reps = ref 10
  and warmups = ref 3 in
  let int_arg name v =
    match int_of_string_opt v with
    | Some k when k >= 0 -> k
    | Some _ | None ->
      Rr_obs.Log.errorf "bench: %s wants a non-negative integer, got %S" name v;
      exit 2
  in
  let rec go = function
    | [] -> ()
    | "--label" :: v :: rest ->
      label := Some v;
      go rest
    | "--reps" :: v :: rest ->
      reps := max 1 (int_arg "--reps" v);
      go rest
    | "--warmups" :: v :: rest ->
      warmups := int_arg "--warmups" v;
      go rest
    | arg :: _ when String.length arg > 2 && String.sub arg 0 2 = "--" ->
      Rr_obs.Log.errorf "bench: unknown json option %s" arg;
      exit 2
    | arg :: rest ->
      file := Some arg;
      go rest
  in
  go rest;
  let file =
    match (!file, !label) with
    | Some f, _ -> f
    | None, Some l -> Printf.sprintf "BENCH_%s.json" l
    | None, None -> "BENCH.json"
  in
  (file, !reps, !warmups)

(* --- continental-smoke: the large-topology correctness gate CI runs ---

   Builds a continental merged net and its cached Env, routes a
   deterministic pair set through both runners of the Env's query
   facade under both weight functions (bit-miles, and bit-risk-miles
   with the population-proportional impact proxy), and verifies that
   plain and ALT return bit-identical (cost, path) while ALT settles
   strictly fewer nodes than plain on every pair — and at least
   [min_ratio] times fewer in aggregate on the bit-miles set, where the
   landmark bound is exact. The settled-node counters are written as a
   JSON artifact. *)

let run_continental_smoke ~pops ~pairs ~out =
  let ctx = ctx () in
  let env =
    Rr_engine.Context.env ctx (Rr_engine.Context.continental ctx ~pops)
  in
  let q = Rr_engine.Context.query ctx env in
  Rr_graph.Query.prepare q;
  let n = Rr_graph.Query.node_count q in
  let pair_set =
    let rng = Rr_util.Prng.create 0x5040_CE55L in
    Array.init pairs (fun _ ->
        let src = Rr_util.Prng.int rng n in
        let rec draw () =
          let dst = Rr_util.Prng.int rng n in
          if dst = src then draw () else dst
        in
        (src, draw ()))
  in
  let totals = Hashtbl.create 8 in
  let bump key v =
    Hashtbl.replace totals key (v + Option.value (Hashtbl.find_opt totals key) ~default:0)
  in
  let failures = ref 0 in
  let same_answer a b =
    match (a, b) with
    | Some (ca, pa), Some (cb, pb) ->
      Int64.equal (Int64.bits_of_float ca) (Int64.bits_of_float cb) && pa = pb
    | None, None -> true
    | _ -> false
  in
  Array.iter
    (fun (src, dst) ->
      let weights =
        [
          ("miles", Rr_graph.Dijkstra.Miles (Riskroute.Env.arc_miles env));
          ( "risk",
            Riskroute.Env.eq1_weight env
              ~kappa:(Riskroute.Env.kappa env src dst) );
        ]
      in
      List.iter
        (fun (wname, weight) ->
          let plain, _, s_plain =
            Rr_graph.Query.search ~runner:Rr_graph.Query.Plain q ~weight ~src ~dst
          in
          let alt, _, s_alt =
            Rr_graph.Query.search ~runner:Rr_graph.Query.Alt q ~weight ~src ~dst
          in
          bump ("plain." ^ wname) s_plain;
          bump ("alt." ^ wname) s_alt;
          if plain = None then begin
            incr failures;
            Rr_obs.Log.errorf "smoke: pair (%d, %d) disconnected under %s" src
              dst wname
          end;
          if not (same_answer plain alt) then begin
            incr failures;
            Rr_obs.Log.errorf "smoke: alt differs from plain on (%d, %d) %s" src
              dst wname
          end;
          if s_alt >= s_plain then begin
            incr failures;
            Rr_obs.Log.errorf
              "smoke: alt settled %d >= plain %d on (%d, %d) %s" s_alt
              s_plain src dst wname
          end)
        weights)
    pair_set;
  let total key = Option.value (Hashtbl.find_opt totals key) ~default:0 in
  let plain_total = total "plain.miles" + total "plain.risk" in
  let alt_total = total "alt.miles" + total "alt.risk" in
  let ratio_of p a = if a > 0 then float_of_int p /. float_of_int a else infinity in
  (* The >= 5x aggregate gate applies to the bit-miles pair set — the
     same weight the query/* bench kernels time. The landmark lower
     bound is exact in that metric; under bit-risk-miles the kappa*risk
     term loosens it, so the risk-set ratio is reported but only gated
     per-pair (strictly fewer, above). *)
  let miles_ratio = ratio_of (total "plain.miles") (total "alt.miles") in
  let risk_ratio = ratio_of (total "plain.risk") (total "alt.risk") in
  let min_ratio = 5.0 in
  Printf.printf
    "continental-smoke: %d PoPs, %d pairs x 2 weights x 2 runners\n\
     settled totals: plain %d, alt %d\n\
     plain/alt ratio: %.1fx on bit-miles (gate >= %.1fx), %.1fx on \
     bit-risk-miles\n"
    pops pairs plain_total alt_total miles_ratio min_ratio
    risk_ratio;
  if miles_ratio < min_ratio then begin
    incr failures;
    Rr_obs.Log.errorf "smoke: plain/alt miles ratio %.2f below %.1fx"
      miles_ratio min_ratio
  end;
  (match out with
  | None -> ()
  | Some path ->
    let b = Buffer.create 1024 in
    Printf.bprintf b
      "{\n  \"pops\": %d,\n  \"pairs\": %d,\n  \"landmarks\": %d,\n" pops pairs
      (Array.length (Rr_graph.Query.landmark_sources q));
    Printf.bprintf b "  \"miles_plain_alt_ratio\": %.3f,\n" miles_ratio;
    Printf.bprintf b "  \"risk_plain_alt_ratio\": %.3f,\n  \"settled\": {\n"
      risk_ratio;
    let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) totals []) in
    List.iteri
      (fun i k ->
        Printf.bprintf b "    \"query.%s.settled\": %d%s\n" k (total k)
          (if i < List.length keys - 1 then "," else ""))
      keys;
    Printf.bprintf b "  },\n  \"failures\": %d\n}\n" !failures;
    let oc = open_out path in
    output_string oc (Buffer.contents b);
    close_out oc;
    Printf.printf "wrote %s\n" path);
  if !failures > 0 then begin
    Rr_obs.Log.errorf "continental-smoke: %d failure(s)" !failures;
    exit 1
  end;
  print_endline "continental-smoke: OK"

let parse_smoke_args rest =
  let pops = ref 10_000 and pairs = ref 100 and out = ref None in
  let int_arg name v =
    match int_of_string_opt v with
    | Some k when k > 0 -> k
    | Some _ | None ->
      Rr_obs.Log.errorf "bench: %s wants a positive integer, got %S" name v;
      exit 2
  in
  let rec go = function
    | [] -> ()
    | "--pops" :: v :: rest ->
      pops := int_arg "--pops" v;
      go rest
    | "--pairs" :: v :: rest ->
      pairs := int_arg "--pairs" v;
      go rest
    | "--out" :: v :: rest ->
      out := Some v;
      go rest
    | arg :: _ ->
      Rr_obs.Log.errorf "bench: unknown continental-smoke option %s" arg;
      exit 2
  in
  go rest;
  (!pops, !pairs, !out)

let ppf = Format.std_formatter

(* --- report-twice: the cache-correctness gate CI runs ---

   Two full report passes in one process over the same shared context.
   The warm pass must (a) be byte-identical to the cold pass once the
   wall-clock timing lines are stripped, and (b) actually hit the engine
   caches — otherwise the context is not memoising and the exercise is
   vacuous. Exits non-zero on either failure. *)

let contains_completed_in line =
  let needle = " completed in " in
  let nl = String.length needle and ll = String.length line in
  let rec go i = i + nl <= ll && (String.sub line i nl = needle || go (i + 1)) in
  String.length line > 0 && line.[0] = '[' && go 0

let strip_timing text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> not (contains_completed_in l))
  |> String.concat "\n"

let run_report_twice () =
  let ctx = ctx () in
  let capture () =
    let b = Buffer.create 65536 in
    let bppf = Format.formatter_of_buffer b in
    Rr_experiments.Report.run_all ctx bppf;
    Format.pp_print_flush bppf ();
    Buffer.contents b
  in
  let cold = capture () in
  let s0 = Rr_engine.Context.stats ctx in
  let warm = capture () in
  let s1 = Rr_engine.Context.stats ctx in
  let env_hits = s1.env_hits - s0.env_hits
  and tree_hits = s1.tree_hits - s0.tree_hits
  and env_misses = s1.env_misses - s0.env_misses in
  Printf.printf
    "report-twice: cold %d bytes, warm %d bytes\n\
     warm pass: env cache %d hits / %d misses, tree cache %d hits\n"
    (String.length cold) (String.length warm) env_hits env_misses tree_hits;
  let identical = String.equal (strip_timing cold) (strip_timing warm) in
  Printf.printf "outputs (timing lines stripped): %s\n"
    (if identical then "byte-identical" else "DIFFER");
  if not identical then exit 1;
  if env_hits = 0 || tree_hits = 0 then begin
    Rr_obs.Log.errorf
      "report-twice: warm pass missed the engine caches (env hits %d, tree \
       hits %d)"
      env_hits tree_hits;
    exit 1
  end;
  print_endline "report-twice: OK"

(* Pull "--telemetry <spec>", "--trace <path>" and "--live <port>" (or
   the "=" forms) out of argv before experiment-id dispatch; the harness
   has no cmdliner front end. *)
let start_live port_spec =
  match int_of_string_opt (String.trim port_spec) with
  | Some port when port >= 0 && port < 65536 -> (
    match Rr_live.start ~port () with
    | Ok bound ->
      Rr_obs.Log.infof
        "bench: live introspection listening on http://127.0.0.1:%d/" bound
    | Error msg ->
      Rr_obs.Log.errorf "bench: %s" msg;
      exit 2)
  | Some _ | None ->
    Rr_obs.Log.errorf "bench: --live wants a port number, got %S" port_spec;
    exit 2

let extract_obs_flags argv =
  let prefixed prefix arg =
    let l = String.length prefix in
    if String.length arg > l && String.sub arg 0 l = prefix then
      Some (String.sub arg l (String.length arg - l))
    else None
  in
  let rec go acc = function
    | [] -> List.rev acc
    | "--telemetry" :: spec :: rest ->
      Rr_obs.enable_dump spec;
      go acc rest
    | "--trace" :: path :: rest ->
      Rr_obs.enable_trace path;
      go acc rest
    | "--live" :: port :: rest ->
      start_live port;
      go acc rest
    | "--series" :: spec :: rest ->
      Rr_obs.Series.enable spec;
      go acc rest
    | arg :: rest -> (
      match
        ( prefixed "--telemetry=" arg,
          prefixed "--trace=" arg,
          prefixed "--live=" arg,
          prefixed "--series=" arg )
      with
      | Some spec, _, _, _ ->
        Rr_obs.enable_dump spec;
        go acc rest
      | None, Some path, _, _ ->
        Rr_obs.enable_trace path;
        go acc rest
      | None, None, Some port, _ ->
        start_live port;
        go acc rest
      | None, None, None, Some spec ->
        Rr_obs.Series.enable spec;
        go acc rest
      | None, None, None, None -> go (arg :: acc) rest)
  in
  go [] argv

let () =
  Rr_live.set_stats_provider (fun () ->
      Rr_engine.Context.stats_json (Rr_engine.Context.shared ()));
  Rr_live.set_explain_provider (fun q ->
      Rr_explain.of_query (Rr_engine.Context.shared ()) q);
  Rr_obs.Series.set_stats_provider (fun () ->
      Rr_engine.Context.stats_fields (Rr_engine.Context.shared ()));
  Rr_obs.Schema.register "stats" 1;
  Rr_obs.Schema.register "explain" Rr_explain.schema_version;
  Rr_obs.Schema.register "bench" Rr_perf.Benchfile.schema;
  Rr_live.autostart_from_env ();
  match extract_obs_flags (Array.to_list Sys.argv) with
  | [] | _ :: [] ->
    Rr_experiments.Report.run_all (ctx ()) ppf;
    Format.pp_print_flush ppf ();
    run_bechamel ()
  | _ :: [ "bechamel" ] -> run_bechamel ()
  | _ :: "json" :: rest ->
    let file, reps, warmups = parse_json_args rest in
    run_json ~reps ~warmups file
  | _ :: [ "report-twice" ] -> run_report_twice ()
  | _ :: "continental-smoke" :: rest ->
    let pops, pairs, out = parse_smoke_args rest in
    run_continental_smoke ~pops ~pairs ~out
  | _ :: [ "list" ] ->
    List.iter print_endline (Rr_experiments.Report.ids ())
  | _ :: "csv" :: rest ->
    let dir = match rest with [ d ] -> d | _ -> "plots" in
    let files = Rr_experiments.Csv_export.write_all (ctx ()) dir in
    List.iter (fun f -> Printf.printf "wrote %s\n" f) files
  | _ :: ids ->
    let ok = ref true in
    List.iter
      (fun id ->
        match Rr_experiments.Report.find id with
        | Some e ->
          Format.fprintf ppf "@.=== %s: %s ===@." (String.uppercase_ascii e.Rr_experiments.Report.id)
            e.Rr_experiments.Report.title;
          (* run_timed, not e.run: selected experiments get the same
             "report.<id>" span as run_all, so traces and telemetry
             attribute their work either way. *)
          Rr_experiments.Report.run_timed e (ctx ()) ppf
        | None ->
          ok := false;
          Rr_obs.Log.errorf "unknown experiment %S (try: %s)" id
            (String.concat " " (Rr_experiments.Report.ids ())))
      ids;
    Format.pp_print_flush ppf ();
    if not !ok then exit 1
