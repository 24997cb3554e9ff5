(* The telemetry subsystem: sharded-metric merge determinism across pool
   sizes, span nesting (including across the domain pool), the disabled
   mode being a true no-op, and golden exposition formats. *)

open Riskroute
module Parallel = Rr_util.Parallel

let with_domains k f =
  let old = Parallel.domain_count () in
  Parallel.set_domain_count k;
  Fun.protect ~finally:(fun () -> Parallel.set_domain_count old) f

(* Every test that records telemetry runs under this guard so a failure
   cannot leave recording enabled for later tests. *)
let with_telemetry f =
  Rr_obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Rr_obs.set_enabled false) f

let pool_sizes = [ 1; 2; 4 ]

(* --- merge determinism --- *)

let test_counter_merge_deterministic () =
  with_telemetry @@ fun () ->
  let c = Rr_obs.Counter.make "test.obs.counter_merge" in
  List.iter
    (fun k ->
      with_domains k (fun () ->
          Rr_obs.Counter.reset c;
          Parallel.parallel_for 1000 (fun _ -> Rr_obs.Counter.incr c);
          Alcotest.(check int)
            (Printf.sprintf "1000 increments at pool size %d" k)
            1000 (Rr_obs.Counter.value c)))
    pool_sizes

let test_histogram_merge_deterministic () =
  with_telemetry @@ fun () ->
  let h = Rr_obs.Histogram.make "test.obs.hist_merge" in
  let observe_all () =
    Rr_obs.Histogram.reset h;
    (* A fixed multiset of values; which domain observes which must not
       matter for count/min/max/buckets. *)
    Parallel.parallel_for 512 (fun i ->
        Rr_obs.Histogram.observe h (Float.ldexp 1.0 ((i mod 9) - 4)));
    Rr_obs.Histogram.snapshot h
  in
  let snaps = List.map (fun k -> with_domains k observe_all) pool_sizes in
  match snaps with
  | base :: rest ->
    List.iteri
      (fun i s ->
        let k = List.nth pool_sizes (i + 1) in
        Alcotest.(check int) (Printf.sprintf "count at %d domains" k)
          base.Rr_obs.Histogram.count s.Rr_obs.Histogram.count;
        Alcotest.(check (float 0.0)) (Printf.sprintf "min at %d domains" k)
          base.Rr_obs.Histogram.vmin s.Rr_obs.Histogram.vmin;
        Alcotest.(check (float 0.0)) (Printf.sprintf "max at %d domains" k)
          base.Rr_obs.Histogram.vmax s.Rr_obs.Histogram.vmax;
        Alcotest.(check (array int)) (Printf.sprintf "buckets at %d domains" k)
          base.Rr_obs.Histogram.buckets s.Rr_obs.Histogram.buckets)
      rest
  | [] -> ()

(* --- spans --- *)

let test_span_nesting () =
  with_telemetry @@ fun () ->
  let r = Rr_obs.Registry.create () in
  Rr_obs.with_span ~registry:r "outer" (fun () ->
      Rr_obs.with_span ~registry:r "inner" (fun () -> ()));
  match Rr_obs.spans ~registry:r () with
  | [ a; b ] ->
    let outer, inner =
      if a.Rr_obs.sp_name = "outer" then (a, b) else (b, a)
    in
    Alcotest.(check string) "outer name" "outer" outer.Rr_obs.sp_name;
    Alcotest.(check int) "outer is a root span" 0 outer.Rr_obs.sp_parent;
    Alcotest.(check int) "inner parents to outer" outer.Rr_obs.sp_id
      inner.Rr_obs.sp_parent
  | sps -> Alcotest.failf "expected 2 spans, got %d" (List.length sps)

(* Spans opened inside pool tasks chain to the submitting span through
   the pool's own "parallel.task" span (recorded in the default
   registry): task -> parallel.task -> submit. *)
let test_span_pool_attribution () =
  with_telemetry @@ fun () ->
  with_domains 4 @@ fun () ->
  Rr_obs.reset ();
  let r = Rr_obs.Registry.create () in
  Rr_obs.with_span ~registry:r "submit" (fun () ->
      Parallel.parallel_for 64 (fun _ ->
          Rr_obs.with_span ~registry:r "task" (fun () -> ())));
  let sps = Rr_obs.spans ~registry:r () in
  let submit = List.find (fun sp -> sp.Rr_obs.sp_name = "submit") sps in
  let tasks = List.filter (fun sp -> sp.Rr_obs.sp_name = "task") sps in
  let pool_spans =
    List.filter
      (fun sp -> sp.Rr_obs.sp_name = "parallel.task")
      (Rr_obs.spans ())
  in
  let pool_ids = List.map (fun sp -> sp.Rr_obs.sp_id) pool_spans in
  Alcotest.(check int) "one span per task body" 64 (List.length tasks);
  Alcotest.(check bool) "pool recorded its task spans" true
    (pool_spans <> []);
  List.iter
    (fun sp ->
      Alcotest.(check bool) "task span parents to a pool task span" true
        (List.mem sp.Rr_obs.sp_parent pool_ids))
    tasks;
  List.iter
    (fun sp ->
      Alcotest.(check int) "pool task span parents to submitting span"
        submit.Rr_obs.sp_id sp.Rr_obs.sp_parent)
    pool_spans

(* --- disabled mode --- *)

let test_disabled_is_noop () =
  Rr_obs.set_enabled false;
  let r = Rr_obs.Registry.create () in
  let c = Rr_obs.Counter.make ~registry:r "test.obs.off_counter" in
  let g = Rr_obs.Gauge.make ~registry:r "test.obs.off_gauge" in
  let h = Rr_obs.Histogram.make ~registry:r "test.obs.off_hist" in
  Rr_obs.Counter.add c 5;
  Rr_obs.Gauge.set g 9;
  Rr_obs.Histogram.observe h 1.5;
  let v = Rr_obs.with_span ~registry:r "off" (fun () -> 17) in
  Alcotest.(check int) "with_span passes the value through" 17 v;
  Alcotest.(check int) "counter untouched" 0 (Rr_obs.Counter.value c);
  Alcotest.(check int) "gauge untouched" 0 (Rr_obs.Gauge.value g);
  Alcotest.(check int) "histogram untouched" 0
    (Rr_obs.Histogram.snapshot h).Rr_obs.Histogram.count;
  Alcotest.(check int) "no spans recorded" 0
    (List.length (Rr_obs.spans ~registry:r ()))

(* --- golden exposition --- *)

(* A registry with a pinned clock and fixed contents, so both exposition
   formats can be compared byte for byte. *)
let golden_registry () =
  Rr_obs.Clock.set_source (fun () -> 42.0);
  let r = Rr_obs.Registry.create () in
  let c = Rr_obs.Counter.make ~registry:r "alpha.count" in
  let g = Rr_obs.Gauge.make ~registry:r "beta.gauge" in
  let h = Rr_obs.Histogram.make ~registry:r "gamma.seconds" in
  Rr_obs.Counter.add c 7;
  Rr_obs.Gauge.set g 4;
  List.iter (Rr_obs.Histogram.observe h) [ 0.25; 0.5; 2.0 ];
  Rr_obs.set_meta ~registry:r "host" "golden";
  Rr_obs.with_span ~registry:r "root.op" (fun () -> ());
  r

let with_golden f =
  with_telemetry @@ fun () ->
  Fun.protect ~finally:Rr_obs.Clock.reset_source (fun () ->
      f (golden_registry ()))

let golden_json =
  "{\n\
  \  \"schema\": 1,\n\
  \  \"meta\": {\n\
  \    \"host\": \"golden\"\n\
  \  },\n\
  \  \"counters\": {\n\
  \    \"alpha.count\": 7\n\
  \  },\n\
  \  \"gauges\": {\n\
  \    \"beta.gauge\": 4\n\
  \  },\n\
  \  \"histograms\": {\n\
  \    \"gamma.seconds\": {\"count\": 3, \"sum\": 2.75, \"min\": 0.25, \
   \"max\": 2.0, \"p50\": 0.5, \"p90\": 2.0, \"p99\": 2.0, \"buckets\": \
   [[0.25, 1], [0.5, 1], [2.0, 1]]}\n\
  \  },\n\
  \  \"spans\": [\n\
  \    {\"id\": 1, \"parent\": 0, \"name\": \"root.op\", \"start\": 0.0, \
   \"dur\": 0.0, \"domain\": 0}\n\
  \  ]\n\
   }\n"

let golden_prom =
  "# TYPE riskroute_alpha_count counter\n\
   riskroute_alpha_count 7\n\
   # TYPE riskroute_beta_gauge gauge\n\
   riskroute_beta_gauge 4\n\
   # TYPE riskroute_gamma_seconds histogram\n\
   riskroute_gamma_seconds_bucket{le=\"0.25\"} 1\n\
   riskroute_gamma_seconds_bucket{le=\"0.5\"} 2\n\
   riskroute_gamma_seconds_bucket{le=\"2\"} 3\n\
   riskroute_gamma_seconds_bucket{le=\"+Inf\"} 3\n\
   riskroute_gamma_seconds_sum 2.75\n\
   riskroute_gamma_seconds_count 3\n"

let test_golden_json () =
  with_golden (fun r ->
      Alcotest.(check string) "JSON exposition" golden_json
        (Rr_obs.to_json ~registry:r ()))

let test_golden_prometheus () =
  with_golden (fun r ->
      Alcotest.(check string) "Prometheus exposition" golden_prom
        (Rr_obs.to_prometheus ~registry:r ()))

(* --- quantiles --- *)

let test_quantile_empty () =
  with_telemetry @@ fun () ->
  let r = Rr_obs.Registry.create () in
  let h = Rr_obs.Histogram.make ~registry:r "test.obs.q_empty" in
  let s = Rr_obs.Histogram.snapshot h in
  List.iter
    (fun q ->
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f of an empty histogram is NaN" q)
        true
        (Float.is_nan (Rr_obs.Histogram.quantile s q)))
    [ 0.0; 0.5; 0.99 ]

(* A registered-but-never-observed histogram must still expose cleanly:
   the NaN quantiles (and infinite min/max) are clamped to 0, never
   leaking "nan"/"inf" tokens that would break JSON consumers. *)
let test_empty_histogram_exposition () =
  with_telemetry @@ fun () ->
  let r = Rr_obs.Registry.create () in
  ignore (Rr_obs.Histogram.make ~registry:r "test.obs.h_unobserved");
  let json = Rr_obs.to_json ~registry:r () in
  let contains needle hay =
    let n = String.length needle and m = String.length hay in
    let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  (match Rr_perf.Json.parse json with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "empty-histogram dump is not JSON: %s\n%s" e json);
  List.iter
    (fun tok ->
      Alcotest.(check bool)
        (Printf.sprintf "no %S token in the JSON dump" tok)
        false
        (contains tok (String.lowercase_ascii json)))
    [ "nan"; "inf" ];
  Alcotest.(check bool) "quantiles clamp to zero" true
    (contains "\"p50\": 0.0, \"p90\": 0.0, \"p99\": 0.0" json);
  let prom = Rr_obs.to_prometheus ~registry:r () in
  Alcotest.(check bool) "no nan in the Prometheus exposition" false
    (contains "nan" (String.lowercase_ascii prom))

let test_quantile_single_sample () =
  with_telemetry @@ fun () ->
  let h = Rr_obs.Histogram.make "test.obs.q_single" in
  Rr_obs.Histogram.reset h;
  Rr_obs.Histogram.observe h 3.0;
  let s = Rr_obs.Histogram.snapshot h in
  (* The bucket bound above 3.0 is 4.0; clamping into [min, max] must
     bring every quantile back to the one observed value. *)
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "q=%.2f of a single sample is that sample" q)
        3.0
        (Rr_obs.Histogram.quantile s q))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ]

let test_quantile_pool_deterministic () =
  with_telemetry @@ fun () ->
  let h = Rr_obs.Histogram.make "test.obs.q_pool" in
  let observe_all () =
    Rr_obs.Histogram.reset h;
    Parallel.parallel_for 512 (fun i ->
        Rr_obs.Histogram.observe h (Float.ldexp 1.0 ((i mod 9) - 4)));
    let s = Rr_obs.Histogram.snapshot h in
    ( Rr_obs.Histogram.quantile s 0.5,
      Rr_obs.Histogram.quantile s 0.9,
      Rr_obs.Histogram.quantile s 0.99 )
  in
  let qs = List.map (fun k -> with_domains k observe_all) pool_sizes in
  match qs with
  | base :: rest ->
    List.iteri
      (fun i q ->
        let k = List.nth pool_sizes (i + 1) in
        Alcotest.(check bool)
          (Printf.sprintf "p50/p90/p99 at %d domains match 1 domain" k)
          true (q = base))
      rest
  | [] -> ()

let test_merge_with_empty_shard () =
  with_telemetry @@ fun () ->
  with_domains 4 @@ fun () ->
  let h = Rr_obs.Histogram.make "test.obs.q_empty_shard" in
  (* Touch the histogram from the pool, then reset: worker shards still
     exist but hold nothing. *)
  Parallel.parallel_for 64 (fun _ -> Rr_obs.Histogram.observe h 1.0);
  Rr_obs.Histogram.reset h;
  (* Record only on the submitting domain; the merge must ignore the
     empty shards (their min/max sentinels must not leak through). *)
  List.iter (Rr_obs.Histogram.observe h) [ 0.5; 1.0; 4.0 ];
  let s = Rr_obs.Histogram.snapshot h in
  Alcotest.(check int) "count" 3 s.Rr_obs.Histogram.count;
  Alcotest.(check (float 0.0)) "min" 0.5 s.Rr_obs.Histogram.vmin;
  Alcotest.(check (float 0.0)) "max" 4.0 s.Rr_obs.Histogram.vmax;
  Alcotest.(check (float 0.0)) "p50" 1.0 (Rr_obs.Histogram.quantile s 0.5)

(* --- kernel wrapper --- *)

let test_with_kernel_gc_counters () =
  with_telemetry @@ fun () ->
  let r = Rr_obs.Registry.create () in
  let sink = ref [||] in
  let v =
    Rr_obs.with_kernel ~registry:r "kern" (fun () ->
        (* Small arrays stay on the minor heap, so the delta is visible
           in kern.gc_minor_words. *)
        for _ = 1 to 100 do
          sink := Array.make 100 0.0
        done;
        11)
  in
  Alcotest.(check int) "with_kernel passes the value through" 11 v;
  ignore !sink;
  let minor =
    Rr_obs.Counter.value
      (Rr_obs.Counter.make ~registry:r "kern.gc_minor_words")
  in
  Alcotest.(check bool) "minor allocation recorded" true (minor > 0);
  Alcotest.(check bool) "heap gauge recorded" true
    (Rr_obs.Gauge.value (Rr_obs.Gauge.make ~registry:r "kern.gc_heap_words")
    > 0);
  match Rr_obs.spans ~registry:r () with
  | [ sp ] ->
    Alcotest.(check string) "kernel span recorded" "kern" sp.Rr_obs.sp_name
  | sps -> Alcotest.failf "expected 1 span, got %d" (List.length sps)

(* --- trace exposition --- *)

let golden_trace =
  "{\n\
  \  \"displayTimeUnit\": \"ms\",\n\
  \  \"traceEvents\": [\n\
  \    {\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", \
   \"args\": {\"name\": \"riskroute\"}},\n\
  \    {\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"thread_name\", \
   \"args\": {\"name\": \"main\"}},\n\
  \    {\"ph\": \"X\", \"pid\": 1, \"tid\": 0, \"ts\": 0.000, \"dur\": \
   0.000, \"name\": \"root.op\", \"cat\": \"riskroute\", \"args\": {\"id\": \
   1, \"parent\": 0}}\n\
  \  ]\n\
   }\n"

let test_golden_trace () =
  with_golden (fun r ->
      Alcotest.(check string) "trace exposition" golden_trace
        (Rr_obs.to_trace ~registry:r ()))

(* A span tree that crosses a real domain boundary: the trace must grow
   a second track and a flow-event pair for the hand-off. Parsed with
   the same reader bench-compare uses, so this also pins "the trace is
   valid JSON". *)
let test_trace_two_tracks () =
  with_telemetry @@ fun () ->
  let r = Rr_obs.Registry.create () in
  Rr_obs.with_span ~registry:r "submit" (fun () ->
      let parent = Rr_obs.Span.current () in
      Domain.join
        (Domain.spawn (fun () ->
             Rr_obs.Span.with_parent parent (fun () ->
                 Rr_obs.with_span ~registry:r "task" (fun () -> ())))));
  let trace = Rr_obs.to_trace ~registry:r () in
  match Rr_perf.Json.parse trace with
  | Error e -> Alcotest.failf "trace is not valid JSON: %s" e
  | Ok j ->
    let events =
      match
        Option.bind (Rr_perf.Json.member "traceEvents" j) Rr_perf.Json.to_arr
      with
      | Some evs -> evs
      | None -> Alcotest.fail "trace has no traceEvents array"
    in
    let ph e = Option.bind (Rr_perf.Json.member "ph" e) Rr_perf.Json.to_str in
    let tid e =
      Option.bind (Rr_perf.Json.member "tid" e) Rr_perf.Json.to_int
    in
    List.iter
      (fun e ->
        if ph e = None || tid e = None then
          Alcotest.fail "trace event missing ph/tid")
      events;
    let tracks =
      List.sort_uniq compare
        (List.filter_map tid (List.filter (fun e -> ph e = Some "X") events))
    in
    Alcotest.(check bool) "at least two domain tracks" true
      (List.length tracks >= 2);
    let count p = List.length (List.filter (fun e -> ph e = Some p) events) in
    Alcotest.(check int) "one flow start for the hand-off" 1 (count "s");
    Alcotest.(check int) "one flow finish for the hand-off" 1 (count "f")

(* --- dump path validation --- *)

let test_dump_path_validation () =
  with_telemetry @@ fun () ->
  Fun.protect ~finally:Rr_obs.disarm_dumps @@ fun () ->
  let c = Rr_obs.Counter.make "obs.dump_path_invalid" in
  let v0 = Rr_obs.Counter.value c in
  (* Missing directory: one warning, one counter bump, dump stays armed. *)
  Rr_obs.enable_dump "/nonexistent-riskroute-dir/metrics.json";
  Alcotest.(check int) "invalid telemetry path counted" (v0 + 1)
    (Rr_obs.Counter.value c);
  (* stderr specs are fine for the telemetry dump... *)
  Rr_obs.enable_dump "-";
  Alcotest.(check int) "stderr telemetry spec accepted" (v0 + 1)
    (Rr_obs.Counter.value c);
  (* ...but a trace needs an actual file. *)
  Rr_obs.enable_trace "-";
  Alcotest.(check int) "stderr trace spec rejected" (v0 + 2)
    (Rr_obs.Counter.value c);
  Rr_obs.enable_trace "/nonexistent-riskroute-dir/trace.json";
  Alcotest.(check int) "invalid trace path counted" (v0 + 3)
    (Rr_obs.Counter.value c)

(* --- flight recorder --- *)

(* Every flight test pins a capacity, empties the rings, and restores
   the default afterwards so rings refilled by later tests (span events
   record into them) start from known state. *)
let with_flight cap f =
  Rr_obs.Flight.set_capacity cap;
  Rr_obs.Flight.reset ();
  Fun.protect
    ~finally:(fun () ->
      Rr_obs.Flight.set_capacity Rr_obs.Flight.default_capacity;
      Rr_obs.Flight.reset ())
    f

let test_flight_always_on () =
  Rr_obs.set_enabled false;
  with_flight 64 @@ fun () ->
  (* Recording must not depend on the telemetry flag: warnings and GC
     events have to survive into post-mortem dumps regardless. *)
  Rr_obs.Flight.record ~kind:"warn" ~name:"log" ~detail:"boom" ();
  match Rr_obs.Flight.events () with
  | [ ev ] ->
    Alcotest.(check string) "kind" "warn" ev.Rr_obs.Flight.ev_kind;
    Alcotest.(check string) "detail" "boom" ev.Rr_obs.Flight.ev_detail
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

let test_flight_wraparound () =
  with_flight 8 @@ fun () ->
  for i = 1 to 20 do
    Rr_obs.Flight.record ~kind:"tick" ~name:(string_of_int i) ()
  done;
  let evs = Rr_obs.Flight.events () in
  Alcotest.(check int) "ring retains exactly its capacity" 8
    (List.length evs);
  (* The retained events are the *last* 8 recorded, in record order. *)
  let names = List.map (fun e -> e.Rr_obs.Flight.ev_name) evs in
  Alcotest.(check (list string)) "oldest events evicted first"
    (List.map string_of_int [ 13; 14; 15; 16; 17; 18; 19; 20 ])
    names;
  let seqs = List.map (fun e -> e.Rr_obs.Flight.ev_seq) evs in
  Alcotest.(check (list int)) "merge sorted by sequence"
    (List.sort compare seqs) seqs

let test_flight_merge_deterministic () =
  with_flight 4096 @@ fun () ->
  List.iter
    (fun k ->
      with_domains k (fun () ->
          Rr_obs.Flight.reset ();
          Parallel.parallel_for 100 (fun i ->
              Rr_obs.Flight.record ~kind:"tick" ~name:(string_of_int i) ());
          let evs = Rr_obs.Flight.events () in
          Alcotest.(check int)
            (Printf.sprintf "100 events retained at pool size %d" k)
            100 (List.length evs);
          (* Which domain recorded which event varies with the pool, but
             the merged order is by global sequence number — strictly
             increasing however the shards are enumerated. *)
          let seqs = List.map (fun e -> e.Rr_obs.Flight.ev_seq) evs in
          Alcotest.(check bool)
            (Printf.sprintf "strictly increasing seq at pool size %d" k)
            true
            (List.for_all2 (fun a b -> a < b)
               (List.filteri (fun i _ -> i < 99) seqs)
               (List.tl seqs));
          let names =
            List.sort compare
              (List.map (fun e -> e.Rr_obs.Flight.ev_name) evs)
          in
          Alcotest.(check (list string))
            (Printf.sprintf "every event retained once at pool size %d" k)
            (List.sort compare (List.init 100 string_of_int))
            names))
    pool_sizes

let test_flight_json_parses () =
  with_flight 16 @@ fun () ->
  Rr_obs.Flight.record ~kind:"evict" ~name:"engine.tree_lru"
    ~detail:"evicted=3" ();
  Rr_obs.Flight.record ~kind:"warn" ~name:"log" ~detail:"say \"hi\"" ();
  match Rr_perf.Json.parse (Rr_obs.Flight.to_json ()) with
  | Error e -> Alcotest.failf "flight dump is not valid JSON: %s" e
  | Ok j ->
    let get k = Option.bind (Rr_perf.Json.member k j) Rr_perf.Json.to_int in
    Alcotest.(check (option int)) "schema" (Some 1) (get "schema");
    Alcotest.(check (option int)) "capacity" (Some 16) (get "capacity");
    Alcotest.(check (option int)) "retained" (Some 2) (get "retained");
    let events =
      match
        Option.bind (Rr_perf.Json.member "events" j) Rr_perf.Json.to_arr
      with
      | Some l -> l
      | None -> Alcotest.fail "no events array"
    in
    Alcotest.(check int) "both events dumped" 2 (List.length events)

let test_span_events_in_flight_ring () =
  with_telemetry @@ fun () ->
  with_flight 64 @@ fun () ->
  Rr_obs.with_span "flight.probe" (fun () -> ());
  let kinds_for name =
    List.filter_map
      (fun e ->
        if e.Rr_obs.Flight.ev_name = name then Some e.Rr_obs.Flight.ev_kind
        else None)
      (Rr_obs.Flight.events ())
  in
  Alcotest.(check (list string)) "span begin/end recorded"
    [ "span_begin"; "span_end" ]
    (kinds_for "flight.probe")

(* A span end keeps its duration as a float in the ring; the dump
   formats it, and the text must be exactly what the span recorded. *)
let test_span_end_detail_in_dump () =
  with_telemetry @@ fun () ->
  with_flight 64 @@ fun () ->
  Rr_obs.with_span "flight.dur_probe" (fun () -> ());
  let sp =
    List.find
      (fun s -> s.Rr_obs.sp_name = "flight.dur_probe")
      (Rr_obs.spans ())
  in
  let str k ev = Option.bind (Rr_perf.Json.member k ev) Rr_perf.Json.to_str in
  let events =
    match Rr_perf.Json.parse (Rr_obs.Flight.to_json ()) with
    | Error e -> Alcotest.failf "flight dump is not valid JSON: %s" e
    | Ok j ->
      Option.value ~default:[]
        (Option.bind (Rr_perf.Json.member "events" j) Rr_perf.Json.to_arr)
  in
  match
    List.filter
      (fun ev ->
        str "name" ev = Some "flight.dur_probe"
        && str "kind" ev = Some "span_end")
      events
  with
  | [ ev ] ->
    Alcotest.(check (option string)) "span_end detail"
      (Some (Printf.sprintf "dur=%.6fs" sp.Rr_obs.sp_dur))
      (str "detail" ev)
  | evs -> Alcotest.failf "expected 1 span_end event, got %d" (List.length evs)

(* --- structured logging --- *)

(* Capture records through the sink; always restore stderr rendering
   and the unconfigured level. *)
let with_log_capture f =
  let records = ref [] in
  Rr_obs.Log.set_sink (Some (fun s -> records := s :: !records));
  Fun.protect
    ~finally:(fun () ->
      Rr_obs.Log.set_sink None;
      Rr_obs.Log.set_level None)
    (fun () -> f records)

let test_log_unconfigured_byte_compat () =
  with_log_capture @@ fun records ->
  Rr_obs.Log.set_level None;
  (* Warn and error render as the plain one-line message the eprintf
     they replaced produced; debug and info are dropped. *)
  Rr_obs.Log.warnf "riskroute: ignoring invalid %s=%S" "RISKROUTE_DOMAINS" "x";
  Rr_obs.Log.errorf "riskroute: %s" "boom";
  Rr_obs.Log.infof "not rendered";
  Rr_obs.Log.debugf "not rendered either";
  Alcotest.(check (list string)) "stderr bytes unchanged"
    [
      "riskroute: ignoring invalid RISKROUTE_DOMAINS=\"x\"\n";
      "riskroute: boom\n";
    ]
    (List.rev !records)

let test_log_configured_json () =
  with_telemetry @@ fun () ->
  with_log_capture @@ fun records ->
  Rr_obs.Log.set_level (Some Rr_obs.Log.Debug);
  Rr_obs.with_span "log.probe" (fun () ->
      Rr_obs.Log.infof "inside %s" "span");
  (match !records with
  | [ line ] -> (
    match Rr_perf.Json.parse line with
    | Error e -> Alcotest.failf "log record is not valid JSON: %s" e
    | Ok j ->
      let str k =
        Option.bind (Rr_perf.Json.member k j) Rr_perf.Json.to_str
      in
      Alcotest.(check (option string)) "level" (Some "info") (str "level");
      Alcotest.(check (option string)) "msg" (Some "inside span")
        (str "msg");
      Alcotest.(check (option string)) "domain label" (Some "main")
        (str "domain");
      Alcotest.(check bool) "span id stamped" true
        (match
           Option.bind (Rr_perf.Json.member "span" j) Rr_perf.Json.to_int
         with
        | Some id -> id > 0
        | None -> false))
  | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs));
  (* Below the configured level: dropped. *)
  Rr_obs.Log.set_level (Some Rr_obs.Log.Error);
  Rr_obs.Log.warnf "filtered";
  Alcotest.(check int) "warn below error level dropped" 1
    (List.length !records)

let test_log_levels_parse () =
  List.iter
    (fun (s, expect) ->
      Alcotest.(check bool) (Printf.sprintf "parse %S" s) true
        (Rr_obs.Log.level_of_string s = expect))
    [
      ("debug", Some Rr_obs.Log.Debug);
      ("INFO", Some Rr_obs.Log.Info);
      ("warn", Some Rr_obs.Log.Warn);
      ("warning", Some Rr_obs.Log.Warn);
      (" error ", Some Rr_obs.Log.Error);
      ("loud", None);
    ]

let test_log_warn_feeds_flight () =
  with_log_capture @@ fun _records ->
  with_flight 64 @@ fun () ->
  Rr_obs.Log.warnf "the sky is %s" "falling";
  Rr_obs.Log.infof "calm";
  let logged =
    List.filter
      (fun e -> e.Rr_obs.Flight.ev_name = "log")
      (Rr_obs.Flight.events ())
  in
  match logged with
  | [ ev ] ->
    Alcotest.(check string) "kind is the level" "warn"
      ev.Rr_obs.Flight.ev_kind;
    Alcotest.(check string) "detail is the message" "the sky is falling"
      ev.Rr_obs.Flight.ev_detail
  | evs ->
    Alcotest.failf "expected only the warning in the ring, got %d"
      (List.length evs)

(* --- engine integration --- *)

let coord lat lon = Rr_geo.Coord.make ~lat ~lon

let small_env () =
  let coords =
    [|
      coord 29.76 (-95.37); coord 30.27 (-89.09); coord 29.95 (-90.07);
      coord 30.69 (-88.04); coord 30.33 (-81.66); coord 32.08 (-81.09);
      coord 33.75 (-84.39); coord 35.15 (-90.05);
    |]
  in
  let n = Array.length coords in
  let graph =
    Rr_graph.Graph.of_edges n
      [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 6); (6, 7); (0, 7); (2, 6) ]
  in
  let impact = Array.init n (fun i -> 0.01 +. (0.02 *. float_of_int i)) in
  let historical = Array.init n (fun i -> 1e-6 *. float_of_int (i + 1)) in
  let forecast = Array.make n 0.0 in
  Env.make ~graph ~coords ~impact ~historical ~forecast ()

let test_engine_counters_flow () =
  with_telemetry @@ fun () ->
  (* Pool size >= 2: at 1 domain the sweeps take the sequential path,
     which legitimately records no parallel.tasks. *)
  with_domains 2 @@ fun () ->
  let relax = Rr_obs.Counter.make "dijkstra.relaxations" in
  let scored = Rr_obs.Counter.make "augment.candidates_scored" in
  let tasks = Rr_obs.Counter.make "parallel.tasks" in
  let r0 = Rr_obs.Counter.value relax
  and s0 = Rr_obs.Counter.value scored
  and t0 = Rr_obs.Counter.value tasks in
  let env = small_env () in
  ignore (Augment.greedy ~k:1 env);
  Alcotest.(check bool) "dijkstra.relaxations advanced" true
    (Rr_obs.Counter.value relax > r0);
  Alcotest.(check bool) "augment.candidates_scored advanced" true
    (Rr_obs.Counter.value scored > s0);
  Alcotest.(check bool) "parallel.tasks advanced" true
    (Rr_obs.Counter.value tasks > t0)

(* --- quantile property: bucket quantiles vs exact reference ---

   Because [bucket_index] is monotone, the bucket-rank quantile is fully
   determined by the sorted sample multiset: it is the bound of the
   bucket holding the nearest-rank sample, clamped into [vmin, vmax].
   Check that against an exact sorted-sample reference for arbitrary
   values under arbitrary shard interleavings (pool sizes 1/2/4 —
   which domain observes which value must not matter). *)

let exact_quantile_reference values q =
  let sorted = List.sort compare values in
  let n = List.length sorted in
  let rank =
    let r = int_of_float (Float.ceil (q *. float_of_int n)) in
    if r < 1 then 1 else if r > n then n else r
  in
  let v = List.nth sorted (rank - 1) in
  let vmin = List.hd sorted and vmax = List.nth sorted (n - 1) in
  Float.max vmin
    (Float.min vmax (Rr_obs.bucket_bound (Rr_obs.bucket_index v)))

let arb_samples =
  QCheck.make
    QCheck.Gen.(list_size (int_range 1 200) (float_range 1e-7 1e6))
    ~print:(fun l ->
      Printf.sprintf "[%s]"
        (String.concat "; " (List.map string_of_float l)))

let histogram_quantiles_match_reference =
  QCheck.Test.make
    ~name:"histogram p50/p90/p99 match sorted-sample reference" ~count:100
    arb_samples
    (fun values ->
      with_telemetry @@ fun () ->
      let arr = Array.of_list values in
      let h = Rr_obs.Histogram.make "test.obs.q_property" in
      List.for_all
        (fun k ->
          with_domains k (fun () ->
              Rr_obs.Histogram.reset h;
              Parallel.parallel_for (Array.length arr) (fun i ->
                  Rr_obs.Histogram.observe h arr.(i));
              let s = Rr_obs.Histogram.snapshot h in
              List.for_all
                (fun q ->
                  Rr_obs.Histogram.quantile s q
                  = exact_quantile_reference values q)
                [ 0.5; 0.9; 0.99 ]))
        pool_sizes)

(* --- time-series sampler --- *)

(* Every series test pins a capacity, empties the ring and the delta
   baselines, and restores the default afterwards. *)
let with_series cap f =
  with_telemetry @@ fun () ->
  Rr_obs.Series.set_capacity cap;
  Rr_obs.Series.reset ();
  Fun.protect
    ~finally:(fun () ->
      Rr_obs.Series.set_stats_provider (fun () -> []);
      Rr_obs.Series.set_capacity Rr_obs.Series.default_capacity;
      Rr_obs.Series.reset ())
    f

let test_series_ring_wraparound () =
  with_series 4 @@ fun () ->
  for _ = 1 to 10 do
    Rr_obs.Series.sample_now ()
  done;
  Alcotest.(check int) "all samples counted" 10 (Rr_obs.Series.recorded ());
  let samples = Rr_obs.Series.samples () in
  Alcotest.(check int) "ring retains exactly its capacity" 4
    (List.length samples);
  Alcotest.(check (list int)) "oldest samples evicted first, in order"
    [ 7; 8; 9; 10 ]
    (List.map (fun s -> s.Rr_obs.Series.s_seq) samples);
  let times = List.map (fun s -> s.Rr_obs.Series.s_time) samples in
  Alcotest.(check bool) "timestamps non-decreasing" true
    (List.sort compare times = times)

let test_series_counter_deltas () =
  with_series 16 @@ fun () ->
  let c = Rr_obs.Counter.make "test.obs.series_delta" in
  Rr_obs.Counter.reset c;
  Rr_obs.Counter.add c 5;
  Rr_obs.Series.sample_now ();
  Rr_obs.Counter.add c 3;
  Rr_obs.Series.sample_now ();
  Rr_obs.Series.sample_now ();
  let window i =
    let s = List.nth (Rr_obs.Series.samples ()) i in
    List.assoc_opt "test.obs.series_delta" s.Rr_obs.Series.s_counters
  in
  Alcotest.(check (option int)) "first window is the full value" (Some 5)
    (window 0);
  Alcotest.(check (option int)) "second window is the increment" (Some 3)
    (window 1);
  Alcotest.(check (option int)) "idle window omits the counter" None
    (window 2)

let test_series_stats_provider () =
  with_series 8 @@ fun () ->
  Rr_obs.Series.set_stats_provider (fun () -> [ ("probe.level", 42) ]);
  Rr_obs.Series.sample_now ();
  (match Rr_obs.Series.samples () with
  | [ s ] ->
    Alcotest.(check (option int)) "provider fields recorded absolute"
      (Some 42)
      (List.assoc_opt "probe.level" s.Rr_obs.Series.s_stats)
  | l -> Alcotest.failf "expected 1 sample, got %d" (List.length l));
  (* A throwing provider must not poison sampling. *)
  Rr_obs.Series.set_stats_provider (fun () -> failwith "boom");
  Rr_obs.Series.sample_now ();
  Alcotest.(check int) "sampling survives a throwing provider" 2
    (Rr_obs.Series.recorded ())

(* A dump taken before the sampler ever ticks (the live endpoint can be
   curled the instant the process is up) must be a complete, valid
   document: zero recorded, an empty samples array — not a crash or a
   truncated object. *)
let test_series_json_before_first_tick () =
  with_series 8 @@ fun () ->
  Alcotest.(check int) "nothing recorded yet" 0 (Rr_obs.Series.recorded ());
  Alcotest.(check int) "no samples retained" 0
    (List.length (Rr_obs.Series.samples ()));
  match Rr_perf.Json.parse (Rr_obs.Series.to_json ()) with
  | Error e -> Alcotest.failf "pre-tick series dump is not valid JSON: %s" e
  | Ok j ->
    let get k = Option.bind (Rr_perf.Json.member k j) Rr_perf.Json.to_int in
    Alcotest.(check (option int)) "schema" (Some 1) (get "schema");
    Alcotest.(check (option int)) "recorded" (Some 0) (get "recorded");
    Alcotest.(check (option int)) "retained" (Some 0) (get "retained");
    Alcotest.(check (option (list string))) "samples array empty"
      (Some [])
      (Option.map
         (List.map (fun _ -> "sample"))
         (Option.bind (Rr_perf.Json.member "samples" j) Rr_perf.Json.to_arr))

let test_series_json_parses () =
  with_series 8 @@ fun () ->
  let c = Rr_obs.Counter.make "test.obs.series_json" in
  Rr_obs.Counter.reset c;
  Rr_obs.Counter.incr c;
  Rr_obs.Series.sample_now ();
  Rr_obs.Series.sample_now ();
  match Rr_perf.Json.parse (Rr_obs.Series.to_json ()) with
  | Error e -> Alcotest.failf "series dump is not valid JSON: %s" e
  | Ok j ->
    let get k = Option.bind (Rr_perf.Json.member k j) Rr_perf.Json.to_int in
    Alcotest.(check (option int)) "schema" (Some 1) (get "schema");
    Alcotest.(check (option int)) "capacity" (Some 8) (get "capacity");
    Alcotest.(check (option int)) "recorded" (Some 2) (get "recorded");
    Alcotest.(check (option int)) "retained" (Some 2) (get "retained");
    (match
       Option.bind (Rr_perf.Json.member "samples" j) Rr_perf.Json.to_arr
     with
    | Some [ s1; _ ] ->
      let counters = Rr_perf.Json.member "counters" s1 in
      Alcotest.(check (option int)) "counter delta in first sample" (Some 1)
        (Option.bind
           (Option.bind counters (Rr_perf.Json.member "test.obs.series_json"))
           Rr_perf.Json.to_int)
    | Some l -> Alcotest.failf "expected 2 samples, got %d" (List.length l)
    | None -> Alcotest.fail "no samples array")

(* --- Runtime_events GC pause consumer --- *)

let test_rte_gc_pause_histograms () =
  with_telemetry @@ fun () ->
  if not (Rr_obs.Rte.start ()) then
    Alcotest.skip () (* Runtime_events unavailable on this runtime *)
  else begin
    let major = Rr_obs.Histogram.make Rr_obs.Rte.major_name in
    let minor = Rr_obs.Histogram.make Rr_obs.Rte.minor_name in
    Rr_obs.Histogram.reset major;
    Rr_obs.Histogram.reset minor;
    (* Allocate enough to cycle the minor heap, then force full major
       collections; the pauses must land in the histograms once the
       cursor is drained. *)
    let sink = ref [] in
    for i = 1 to 50_000 do
      sink := Array.make 10 i :: !sink;
      if i mod 10_000 = 0 then sink := []
    done;
    Gc.full_major ();
    Gc.full_major ();
    ignore (Rr_obs.Rte.poll ());
    let sm = Rr_obs.Histogram.snapshot major in
    let sn = Rr_obs.Histogram.snapshot minor in
    Alcotest.(check bool) "gc.pause.major non-empty after forced major" true
      (sm.Rr_obs.Histogram.count > 0);
    Alcotest.(check bool) "gc.pause.minor non-empty after allocation" true
      (sn.Rr_obs.Histogram.count > 0);
    Alcotest.(check bool) "major pauses are sane (0 <= p < 10s)" true
      (sm.Rr_obs.Histogram.vmin >= 0.0 && sm.Rr_obs.Histogram.vmax < 10.0);
    (* Idempotent: a second start is a no-op that still reports running. *)
    Alcotest.(check bool) "start is idempotent" true (Rr_obs.Rte.start ())
  end

let test_results_unchanged_by_telemetry () =
  let env = small_env () in
  let compute () =
    let picks =
      List.map
        (fun (p : Augment.pick) -> (p.Augment.u, p.Augment.v, p.Augment.total_after))
        (Augment.greedy ~k:2 env)
    in
    let r = Ratios.intradomain ~pair_cap:40 env in
    (picks, r.Ratios.risk_reduction, r.Ratios.distance_increase)
  in
  Rr_obs.set_enabled false;
  let off = compute () in
  let on = with_telemetry compute in
  Alcotest.(check bool) "telemetry on/off results identical" true (off = on)

let () =
  Alcotest.run "obs"
    [
      ( "merge",
        [
          Alcotest.test_case "counter deterministic across pool sizes" `Quick
            test_counter_merge_deterministic;
          Alcotest.test_case "histogram deterministic across pool sizes" `Quick
            test_histogram_merge_deterministic;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "pool parent attribution" `Quick
            test_span_pool_attribution;
        ] );
      ( "disabled",
        [ Alcotest.test_case "recording is a no-op" `Quick test_disabled_is_noop ] );
      ( "golden",
        [
          Alcotest.test_case "json format" `Quick test_golden_json;
          Alcotest.test_case "prometheus format" `Quick test_golden_prometheus;
        ] );
      ( "quantiles",
        [
          Alcotest.test_case "empty histogram is NaN" `Quick
            test_quantile_empty;
          Alcotest.test_case "empty histogram exposes clamped" `Quick
            test_empty_histogram_exposition;
          Alcotest.test_case "single sample" `Quick
            test_quantile_single_sample;
          Alcotest.test_case "deterministic across pool sizes" `Quick
            test_quantile_pool_deterministic;
          Alcotest.test_case "merge ignores empty shards" `Quick
            test_merge_with_empty_shard;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "gc counters captured" `Quick
            test_with_kernel_gc_counters;
        ] );
      ( "trace",
        [
          Alcotest.test_case "golden format" `Quick test_golden_trace;
          Alcotest.test_case "two tracks and hand-off flows" `Quick
            test_trace_two_tracks;
        ] );
      ( "dump",
        [
          Alcotest.test_case "output path validation" `Quick
            test_dump_path_validation;
        ] );
      ( "flight",
        [
          Alcotest.test_case "records with telemetry off" `Quick
            test_flight_always_on;
          Alcotest.test_case "ring wraparound" `Quick test_flight_wraparound;
          Alcotest.test_case "merge deterministic across pool sizes" `Quick
            test_flight_merge_deterministic;
          Alcotest.test_case "dump is valid JSON" `Quick
            test_flight_json_parses;
          Alcotest.test_case "span begin/end events" `Quick
            test_span_events_in_flight_ring;
          Alcotest.test_case "span end detail formatted at dump" `Quick
            test_span_end_detail_in_dump;
        ] );
      ( "log",
        [
          Alcotest.test_case "unconfigured stderr byte-compat" `Quick
            test_log_unconfigured_byte_compat;
          Alcotest.test_case "configured JSON lines" `Quick
            test_log_configured_json;
          Alcotest.test_case "level parsing" `Quick test_log_levels_parse;
          Alcotest.test_case "warnings feed the flight ring" `Quick
            test_log_warn_feeds_flight;
        ] );
      ( "series",
        [
          Alcotest.test_case "ring wraparound" `Quick
            test_series_ring_wraparound;
          Alcotest.test_case "counter window deltas" `Quick
            test_series_counter_deltas;
          Alcotest.test_case "stats provider fields" `Quick
            test_series_stats_provider;
          Alcotest.test_case "dump before first tick" `Quick
            test_series_json_before_first_tick;
          Alcotest.test_case "dump is valid JSON" `Quick
            test_series_json_parses;
        ] );
      ( "runtime-events",
        [
          Alcotest.test_case "gc pause histograms" `Quick
            test_rte_gc_pause_histograms;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest histogram_quantiles_match_reference ] );
      ( "integration",
        [
          Alcotest.test_case "engine counters flow" `Quick
            test_engine_counters_flow;
          Alcotest.test_case "results unchanged by telemetry" `Quick
            test_results_unchanged_by_telemetry;
        ] );
    ]
