(* The RiskRoute benchmark: one in-process closed loop per
   workload over the libraries' public functions.

     main.exe --workload <storm-ticks|route-explain|tier1-plan>
              --seed <n> --seconds <s> --trace <0|1>

   --trace 0 times the ops untraced and prints the end-to-end metrics;
   --trace 1 runs the same seeded op stream untraced and then traced,
   half of --seconds each, and prints the per-layer metrics. Either way
   the last stdout line is one JSON result object, the line above it
   records the run's settings and op mix, every op is judged against a
   reference computed after the timed phases, and any failed op makes
   the exit code non-zero. --seconds is required. *)

let workloads =
  [
    ("storm-ticks", Storm_ticks.make);
    ("route-explain", Route_explain.make);
    ("tier1-plan", Tier1_plan.make);
  ]

(* Set-ups measured per untraced run; setup_s is their median. *)
let setup_repeats = 2

(* Pool size, pinned through RISKROUTE_DOMAINS before the pool is first
   consulted. *)
let pool_size = min 2 (Domain.recommended_domain_count ())

let trace_dir = "rrbench/_trace"

let fail usage msg =
  prerr_endline ("rrbench: " ^ msg);
  prerr_endline usage;
  exit 2

let fmt_s xs = String.concat ", " (List.map (Printf.sprintf "%.3f") xs)

let percentile_name p = Printf.sprintf "p%g" (100.0 *. p)

(* Per-layer metrics of the traced phase. Span totals and program
   counters are summed over the traced ops and reported per op unless
   the name says otherwise. *)
let per_layer ~(ph : Harness.phase) ~setup ~untraced_ops_per_s =
  let ops = float_of_int (Harness.ops ph) in
  let totals = Trace.totals (Trace.recorded ()) in
  let dur name = fst (Option.value (Hashtbl.find_opt totals name) ~default:(0.0, 0.0)) in
  let self name = snd (Option.value (Hashtbl.find_opt totals name) ~default:(0.0, 0.0)) in
  let shadow name = Trace.shadow_prefix ^ name in
  let per_op x = Harness.ratio x ops in
  let ms x = per_op x *. 1e3 in
  let sum = Harness.sum ph in
  let setup_s name = Option.value (List.assoc_opt name setup) ~default:0.0 in
  let query_runs = sum "query.plain.runs" +. sum "query.bidir.runs" +. sum "query.alt.runs" in
  let traced_ops_per_s = Harness.ratio ops ph.Harness.wall in
  let m = Harness.metric in
  [
    m "rr_forecast.parse_us" "us" (per_op (dur "rr_forecast.parse") *. 1e6);
    m "rr_forecast.diff_ms" "ms" (ms (dur (shadow "rr_forecast.diff_field")));
    m "rr_forecast.changed_pops" "count" (per_op (sum "changed_pops"));
    m "rr_forecast.empty_delta_share" "ratio" (per_op (sum "empty_delta"));
    m "riskroute.env_patch_ms" "ms" (ms (dur (shadow "riskroute.env_patch")));
    m "riskroute.patched_arcs" "count" (per_op (sum "patched_arcs"));
    m "riskroute.env_build_ms" "ms" (ms (dur "riskroute.env_build"));
    m "riskroute.augment_ms" "ms" (ms (dur "riskroute.augment"));
    m "riskroute.ratios_ms" "ms" (ms (dur "riskroute.ratios"));
    m "riskroute.outagesim_ms" "ms" (ms (dur "riskroute.outagesim"));
    m "riskroute.backup_ms" "ms" (ms (dur "riskroute.backup"));
    m "rr_engine.patched_env_ms" "ms" (ms (dur "rr_engine.patched_env"));
    m "rr_engine.migrate_self_ms" "ms" (ms (self "rr_engine.patched_env"));
    m "rr_engine.tree_lookup_ms" "ms" (ms (dur "rr_engine.tree_lookup"));
    m "rr_engine.keep_ratio" "ratio"
      (Harness.ratio (sum "trees_kept")
         (sum "trees_kept" +. sum "trees_repaired" +. sum "trees_evicted"));
    m "rr_engine.trees_repaired" "count" (per_op (sum "trees_repaired"));
    m "rr_engine.tree_cache_length" "count" (per_op (sum "tree_cache_length"));
    m "rr_engine.tree_hit_ratio" "ratio"
      (Harness.ratio (sum "tree_hits") (sum "tree_hits" +. sum "tree_misses"));
    m "rr_engine.settled_nodes" "count" (per_op (sum "settled_nodes"));
    m "rr_engine.open_ms" "ms"
      (Harness.ratio (sum "open_s") (sum "passes") *. 1e3);
    m "rr_graph.repairs" "count" (per_op (sum "dijkstra.repairs"));
    m "rr_graph.repair_fallback_ratio" "ratio"
      (Harness.ratio (sum "dijkstra.repair_full_fallbacks") (sum "dijkstra.repairs"));
    m "rr_graph.relaxations" "count" (per_op (sum "dijkstra.relaxations"));
    m "rr_graph.heap_pops" "count" (per_op (sum "dijkstra.heap_pops"));
    m "rr_graph.query_ms" "ms" (ms (dur (shadow "rr_graph.query")));
    m "rr_graph.query_settled" "count"
      (per_op
         (sum "query.plain.settled" +. sum "query.bidir.settled"
        +. sum "query.alt.settled"));
    m "rr_graph.alt_share" "ratio" (Harness.ratio (sum "query.alt.runs") query_runs);
    m "rr_graph.landmarks_s" "s" (setup_s "rr_graph.landmarks");
    m "rr_topology.continental_s" "s" (setup_s "rr_topology.continental");
    m "rr_topology.population_fractions_ms" "ms"
      (ms (dur (shadow "rr_topology.population_fractions")));
    m "rr_disaster.riskmap_s" "s" (setup_s "rr_disaster.riskmap");
    m "rr_disaster.pop_risks_ms" "ms" (ms (dur (shadow "rr_disaster.pop_risks")));
    m "rr_census.blocks_s" "s" (setup_s "rr_census.blocks");
    m "rr_census.fractions_s" "s" (setup_s "rr_census.fractions");
    m "rr_explain.self_ms" "ms" (ms (self "rr_explain.explain_continental"));
    m "rr_explain.json_ms" "ms" (ms (dur "rr_explain.to_json"));
    m "rr_util.parallel_tasks" "count" (per_op (sum "parallel.tasks"));
    m "rr_util.cpu_per_wall" "ratio" (sum "cpu_per_wall");
    m "runtime.minor_words" "words" (per_op (sum "minor_words"));
    m "runtime.major_gcs" "count" (per_op (sum "major_gcs"));
    m "unattributed_ms" "ms"
      (ms
         (Hashtbl.fold
            (fun name (_, st) acc ->
              if Filename.check_suffix name ".op" then acc +. st else acc)
            totals 0.0));
    m "trace_overhead" "ratio"
      (Harness.ratio (untraced_ops_per_s -. traced_ops_per_s) untraced_ops_per_s);
  ]

(* Op classes as (name, share of ops, median latency in seconds),
   cheapest class first: a percentile that lands on a class boundary
   shows here. *)
let classes (w : Harness.workload) (ph : Harness.phase) =
  let by = Hashtbl.create 8 in
  List.iter
    (fun (cls, dt) ->
      let name = w.Harness.class_name cls in
      Hashtbl.replace by name (dt :: Option.value (Hashtbl.find_opt by name) ~default:[]))
    ph.Harness.lat;
  let n = float_of_int (Harness.ops ph) in
  Hashtbl.fold
    (fun name lat acc ->
      (Stats.median (Array.of_list lat), name, float_of_int (List.length lat) /. n)
      :: acc)
    by []
  |> List.sort compare
  |> List.map (fun (p50, name, share) -> (name, share, p50))

(* The run's settings and op mix as one JSON object, printed just above
   the result line (whose keys are fixed). *)
let record_line ~workload ~seed ~pool ~seconds ~ops ~tail_p ~classes ~slowdown ~slices =
  Printf.sprintf
    "{\"record\": {\"workload\": \"%s\", \"seed\": %d, \"pool_size\": %d, \
     \"seconds\": %g, \"ops\": %d, \"tail_percentile\": %g, \"ops_beyond\": %d, \
     \"slowdown\": %.6f, \"calibration_slices\": %d, \"class_shares\": {%s}}}"
    workload seed pool seconds ops tail_p (Stats.beyond ~n:ops tail_p) slowdown slices
    (String.concat ", "
       (List.map (fun (name, share, _) -> Printf.sprintf "\"%s\": %.4f" name share) classes))

let () =
  let usage =
    "usage: main.exe --workload <storm-ticks|route-explain|tier1-plan> --seed \
     <n> --seconds <s> --trace <0|1>"
  in
  let workload = ref "" and seed = ref 1 and seconds = ref 0.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " seconds of timed ops (required)");
      ("--trace", Arg.Set_int trace, " 1 for the traced run (per-layer metrics)");
    ]
    (fun a -> fail usage ("unexpected argument " ^ a))
    usage;
  let make =
    match List.assoc_opt !workload workloads with
    | Some m -> m
    | None -> fail usage (Printf.sprintf "unknown workload %S" !workload)
  in
  if !trace <> 0 && !trace <> 1 then fail usage "--trace takes 0 or 1";
  if not (!seconds > 0.0) then fail usage "--seconds must be given and positive";
  Unix.putenv "RISKROUTE_DOMAINS" (string_of_int pool_size);
  let traced_run = !trace = 1 in
  let w = make ~seed:!seed in
  (* A traced run measures --seconds in all: half untraced, half
     traced. *)
  let phase_s = if traced_run then !seconds /. 2.0 else !seconds in
  (* Set-up: every lazily built artifact, forced before the first op;
     the first one is timed from process start. *)
  let steps1 = Harness.run_steps ~first:true w.Harness.steps in
  let setup1 = Harness.now () -. Rr_obs.process_epoch in
  let pool = Rr_util.Parallel.domain_count () in
  let ph = Harness.phase ~traced:false in
  Harness.run_phase ph ~seconds:phase_s w.Harness.round;
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let untraced_ops_per_s = Harness.ratio (float_of_int (Harness.ops ph)) ph.Harness.wall in
  let traced =
    if not traced_run then None
    else begin
      let tp = Harness.phase ~traced:true in
      Rr_obs.set_enabled true;
      let c0 = Harness.cpu_s () in
      Harness.run_phase tp ~seconds:phase_s w.Harness.round;
      let c1 = Harness.cpu_s () in
      Rr_obs.set_enabled false;
      let sum = Harness.sum tp in
      Harness.add tp "cpu_per_wall"
        (Harness.ratio
           (c1 -. c0 -. sum "calib_cpu")
           (tp.Harness.wall +. tp.Harness.paused -. sum "calib_wall"));
      Some tp
    end
  in
  let setups =
    if traced_run then [ setup1 ]
    else
      setup1
      :: List.init (setup_repeats - 1) (fun _ ->
             List.fold_left (fun acc (_, dt) -> acc +. dt) 0.0
               (Harness.run_steps ~first:false w.Harness.steps))
  in
  let attempted = w.Harness.attempted () in
  let t_check = Harness.now () in
  let failed = w.Harness.failed () in
  let check_s = Harness.now () -. t_check in
  let lat = Array.of_list (List.map snd ph.Harness.lat) in
  let n = Array.length lat in
  let sorted = Stats.sorted lat in
  let tail_p = w.Harness.tail in
  let setup_s = Stats.median (Array.of_list setups) in
  let ops_per_s = untraced_ops_per_s in
  let p50 = 1e3 *. Stats.keyed_p50 ph.Harness.lat in
  let tail = 1e3 *. Stats.percentile sorted tail_p in
  (* Times and rates are reported at the reference speed (Calib); the
     human lines also give the wall-clock values. *)
  let slices = Calib.slices () in
  let slowdown = Calib.slowdown slices in
  let at_ref unit_ v = Calib.at_reference ~slowdown ~unit_ v in
  let at_ref_metric m = { m with Harness.value = at_ref m.Harness.unit_ m.Harness.value } in
  Printf.printf "rrbench %s: seed %d, pool size %d (RISKROUTE_DOMAINS), closed loop, 1 caller, %s\n"
    !workload !seed pool (if traced_run then "traced run" else "untraced run");
  Printf.printf "inputs: %s\n" (w.Harness.inputs ());
  Printf.printf "set-up steps: %s\n"
    (String.concat ", " (List.map (fun (s, dt) -> Printf.sprintf "%s %.3f s" s dt) steps1));
  let cal = Stats.sorted (Array.of_list slices) in
  Printf.printf
    "calibration: %d slices, mean %.2f ms (min %.2f, max %.2f) against the reference \
     %.2f ms: slowdown %.4f; times below are wall times divided by it\n"
    (Array.length cal)
    (1e3 *. slowdown *. Calib.reference_s)
    (1e3 *. cal.(0))
    (1e3 *. cal.(Array.length cal - 1))
    (1e3 *. Calib.reference_s) slowdown;
  Printf.printf "setup_s %.4f s (wall: median of %d set-ups: %s)\n" (at_ref "s" setup_s)
    (List.length setups) (fmt_s setups);
  Printf.printf "ops_per_s %.4f 1/s (wall: %.4f, %d ops in %.3f s)\n" (at_ref "1/s" ops_per_s)
    ops_per_s n ph.Harness.wall;
  let q1, _, q3 = Stats.quartiles lat in
  Printf.printf
    "op_p50_ms %.4f ms (wall: %.4f, median over op keys of each key's mean; all ops: \
     quartiles %.4f / %.4f ms)\n"
    (at_ref "ms" p50) p50 (1e3 *. q1) (1e3 *. q3);
  Printf.printf
    "op_tail_ms %.4f ms (wall: %.4f; %s: %d of %d ops beyond; at this run length the \
     rule picks %s)\n"
    (at_ref "ms" tail) tail (percentile_name tail_p) (Stats.beyond ~n tail_p) n
    (match Stats.tail_percentile ~n [ 0.8; 0.9; 0.95; 0.99 ] with
    | Some p -> percentile_name p
    | None -> "none");
  Printf.printf "peak_heap_mb %.4f MB\n" peak_heap_mb;
  Printf.printf "fail_ratio %g (%d of %d ops failed; reference check %.3f s)\n"
    (Stats.fail_ratio ~attempted ~failed) failed attempted check_s;
  let classes = classes w ph in
  Printf.printf "op classes: %s\n"
    (String.concat ", "
       (List.map
          (fun (name, share, p50) ->
            Printf.sprintf "%s %.1f%% (p50 %.3f ms)" name (100.0 *. share) (1e3 *. p50))
          classes));
  let metrics =
    match traced with
    | None ->
      List.map at_ref_metric
        Harness.
          [
            metric "setup_s" "s" setup_s;
            metric "ops_per_s" "1/s" ops_per_s;
            metric "op_p50_ms" "ms" p50;
            metric "op_tail_ms" "ms" tail;
            metric "peak_heap_mb" "MB" peak_heap_mb;
          ]
    | Some tp ->
      let path =
        Filename.concat trace_dir (Printf.sprintf "%s-seed%d.json" !workload !seed)
      in
      (try Unix.mkdir trace_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Rr_obs.write_trace path;
      let layers = List.map at_ref_metric (per_layer ~ph:tp ~setup:steps1 ~untraced_ops_per_s) in
      Printf.printf "traced phase: %d ops in %.3f s; spans written to %s\n"
        (Harness.ops tp) tp.Harness.wall path;
      List.iter
        (fun m -> Printf.printf "  %s %.6g %s\n" m.Harness.name m.Harness.value m.Harness.unit_)
        layers;
      layers
  in
  print_endline
    (record_line ~workload:!workload ~seed:!seed ~pool ~seconds:!seconds ~ops:n ~tail_p
       ~classes ~slowdown ~slices:(List.length slices));
  print_endline (Harness.result_line ~correct:(failed = 0) ~attempted ~failed metrics);
  exit (if failed = 0 then 0 else 1)
