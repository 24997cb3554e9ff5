(* The risk provenance layer: the per-arc decomposition must reproduce
   the engine's bit-risk-mile totals *bit-for-bit* — on corpus and
   continental topologies, with and without a storm overlay, at any
   pool size — and every surfaced artifact (JSON document, counters,
   query front door) must stay faithful to the record. *)

module Parallel = Rr_util.Parallel
module Context = Rr_engine.Context
module Explain = Rr_explain
module Json = Rr_perf.Json

let with_domains k f =
  let old = Parallel.domain_count () in
  Parallel.set_domain_count k;
  Fun.protect ~finally:(fun () -> Parallel.set_domain_count old) f

let pool_sizes = [ 1; 2; 4 ]

let bits = Int64.bits_of_float

let check_bits label a b = Alcotest.(check int64) label (bits a) (bits b)

let explain_exn ?lambda_h ?storm ?tick ctx ~net ~src ~dst =
  match Explain.explain_named ?lambda_h ?storm ?tick ctx ~net ~src ~dst with
  | Ok t -> t
  | Error e -> Alcotest.failf "explain %s %s -> %s failed: %s" net src dst e

(* The decomposition invariants one [side] must satisfy: each arc
   weight replays [miles + kappa * (hist + fcst)] exactly, their left
   fold is [term_sum], and [term_sum] is the engine's own total. *)
let check_side label kappa (s : Explain.side) =
  Alcotest.(check bool) (label ^ ": decomposition flagged exact") true
    s.Explain.exact;
  check_bits
    (label ^ ": term sum reproduces the engine total")
    s.Explain.bit_risk_miles s.Explain.term_sum;
  let fold =
    List.fold_left
      (fun acc (a : Explain.arc) ->
        check_bits
          (Printf.sprintf "%s: arc %d->%d weight replays Eq. 1" label
             a.Explain.tail a.Explain.head)
          (a.Explain.miles +. (kappa *. (a.Explain.hist +. a.Explain.fcst)))
          a.Explain.weight;
        acc +. a.Explain.weight)
      0.0 s.Explain.arcs
  in
  check_bits (label ^ ": arc fold is the term sum") s.Explain.term_sum fold;
  Alcotest.(check int)
    (label ^ ": one arc per hop")
    (max 0 (List.length s.Explain.path - 1))
    (List.length s.Explain.arcs)

(* --- corpus networks, across pool sizes --- *)

let test_corpus_exact_all_pools () =
  let ctx = Context.create () in
  let runs =
    List.map
      (fun k ->
        with_domains k (fun () ->
            (k, explain_exn ctx ~net:"Level3" ~src:"Houston" ~dst:"Boston")))
      pool_sizes
  in
  List.iter
    (fun (k, t) ->
      let label side = Printf.sprintf "%d domains, %s" k side in
      check_side (label "riskroute") t.Explain.kappa t.Explain.riskroute;
      check_side (label "shortest") t.Explain.kappa t.Explain.shortest)
    runs;
  (* Routing is deterministic: every pool size explains the identical
     route with the identical floats. *)
  match runs with
  | (_, base) :: rest ->
    List.iter
      (fun (k, t) ->
        Alcotest.(check (list int))
          (Printf.sprintf "path at %d domains matches 1 domain" k)
          base.Explain.riskroute.Explain.path t.Explain.riskroute.Explain.path;
        check_bits
          (Printf.sprintf "bit-risk miles at %d domains match 1 domain" k)
          base.Explain.riskroute.Explain.bit_risk_miles
          t.Explain.riskroute.Explain.bit_risk_miles)
      rest
  | [] -> ()

(* The explained sides are the engine's own answers, not a parallel
   reimplementation: path and totals must coincide with [Router]. *)
let test_sides_match_router () =
  let ctx = Context.create () in
  let net = Context.require_net ctx "Level3" in
  let env = Context.env ctx net in
  let pop city =
    match Rr_topology.Net.find_pop net ~city with
    | Some i -> i
    | None -> Alcotest.failf "no %s on Level3" city
  in
  let src = pop "Houston" and dst = pop "Boston" in
  let t =
    match Explain.explain ctx net ~src ~dst with
    | Ok t -> t
    | Error e -> Alcotest.failf "explain failed: %s" e
  in
  (match Riskroute.Router.riskroute env ~src ~dst with
  | None -> Alcotest.fail "router found no riskroute path"
  | Some r ->
    Alcotest.(check (list int)) "riskroute path matches Router"
      r.Riskroute.Router.path t.Explain.riskroute.Explain.path;
    check_bits "riskroute total matches Router"
      r.Riskroute.Router.bit_risk_miles
      t.Explain.riskroute.Explain.bit_risk_miles;
    check_bits "riskroute miles match Router" r.Riskroute.Router.bit_miles
      t.Explain.riskroute.Explain.bit_miles);
  match Riskroute.Router.shortest env ~src ~dst with
  | None -> Alcotest.fail "router found no shortest path"
  | Some r ->
    Alcotest.(check (list int)) "shortest path matches Router"
      r.Riskroute.Router.path t.Explain.shortest.Explain.path;
    check_bits "shortest total matches Router"
      r.Riskroute.Router.bit_risk_miles
      t.Explain.shortest.Explain.bit_risk_miles

(* A storm overlay routes the forecast term through the same
   invariants. *)
let test_storm_overlay_exact () =
  let ctx = Context.create () in
  let t =
    explain_exn ctx ~net:"Level3" ~src:"Houston" ~dst:"Boston" ~storm:"sandy"
      ~tick:40
  in
  Alcotest.(check bool) "advisory recorded" true (t.Explain.advisory <> None);
  check_side "storm riskroute" t.Explain.kappa t.Explain.riskroute;
  check_side "storm shortest" t.Explain.kappa t.Explain.shortest;
  match
    Explain.explain_named ctx ~net:"Level3" ~src:"Houston" ~dst:"Boston"
      ~storm:"nope"
  with
  | Ok _ -> Alcotest.fail "unknown storm accepted"
  | Error e -> Alcotest.(check bool) "unknown storm named" true (e <> "")

(* --- continental networks, across pool sizes ---

   The reference rebuilds Eq. 1 from the raw inputs without an Env,
   over net_query's own CSR: node risk
   [lambda_h * risk_scale * pop_risk], kappa from the population
   fractions, searched by the plain kernel. Sizes on both sides of the
   1,024-PoP line (plain below, ALT above): a small continental net is
   still impact-weighted by population fractions. *)

let continental_pairs ~n =
  let rng = Random.State.make [| 0xc2000 |] in
  List.init 8 (fun _ ->
      let src = Random.State.int rng n in
      (src, (src + 1 + Random.State.int rng (n - 1)) mod n))

let continental_exact_all_pools pops =
  let ctx = Context.create () in
  let net = Context.continental ctx ~pops in
  let q = Context.net_query ctx net in
  let n = Rr_graph.Query.node_count q
  and off = Rr_graph.Query.arc_off q
  and tgt = Rr_graph.Query.arc_tgt q
  and miles = Rr_graph.Query.arc_miles q in
  let p = Riskroute.Params.default in
  let node_risk =
    Array.map
      (fun r ->
        p.Riskroute.Params.lambda_h *. p.Riskroute.Params.risk_scale *. r)
      (Rr_disaster.Riskmap.pop_risks (Context.riskmap ctx) net)
  in
  let impact = Rr_topology.Net.population_fractions net in
  let search weight ~src ~dst =
    match Rr_graph.Dijkstra.single_pair_flat ~n ~off ~tgt ~weight ~src ~dst with
    | Some r -> r
    | None -> Alcotest.failf "reference finds no path %d -> %d" src dst
  in
  let pairs = continental_pairs ~n in
  let runs =
    List.map
      (fun k ->
        with_domains k (fun () ->
            ( k,
              List.map
                (fun (src, dst) ->
                  match Explain.explain_continental ctx ~pops ~src ~dst with
                  | Ok t -> t
                  | Error e -> Alcotest.failf "explain %d -> %d: %s" src dst e)
                pairs )))
      pool_sizes
  in
  let risk_fp = Rr_engine.Fingerprint.env_risk (Context.env ctx net) in
  List.iter
    (fun (k, ts) ->
      List.iter2
        (fun (src, dst) t ->
          let label side =
            Printf.sprintf "continental-%d %d->%d, %d domains, %s" pops src
              dst k side
          in
          check_side (label "riskroute") t.Explain.kappa t.Explain.riskroute;
          check_side (label "shortest") t.Explain.kappa t.Explain.shortest;
          check_bits (label "no forecast term") 0.0
            t.Explain.riskroute.Explain.fcst_contribution;
          let kappa = impact.(src) +. impact.(dst) in
          check_bits (label "kappa from population fractions") kappa
            t.Explain.kappa;
          let w_risk k = miles.(k) +. (kappa *. node_risk.(tgt.(k))) in
          let cost, path = search w_risk ~src ~dst in
          Alcotest.(check (list int)) (label "riskroute path") path
            t.Explain.riskroute.Explain.path;
          check_bits (label "riskroute cost") cost
            t.Explain.riskroute.Explain.bit_risk_miles;
          let cost, path = search (fun k -> miles.(k)) ~src ~dst in
          Alcotest.(check (list int)) (label "shortest path") path
            t.Explain.shortest.Explain.path;
          check_bits (label "shortest miles") cost
            t.Explain.shortest.Explain.bit_miles;
          check_bits (label "shortest bit-risk miles")
            (Rr_graph.Dijkstra.path_cost ~off ~tgt ~weight:(Fn w_risk) path)
            t.Explain.shortest.Explain.bit_risk_miles;
          Alcotest.(check (option string))
            (label "risk fingerprint is the env's")
            (Some risk_fp)
            (List.assoc_opt "risk" t.Explain.fingerprints))
        pairs ts)
    runs

let test_continental_exact_all_pools () =
  List.iter continental_exact_all_pools [ 500; 2000 ]

(* The network-sized work happens once: a repeated continental explain
   builds no environment and computes no tree. *)
let test_continental_second_explain_cached () =
  let ctx = Context.create () in
  let explain () =
    explain_exn ctx ~net:"continental-2000" ~src:"Chicago" ~dst:"Miami"
  in
  let delta t name =
    List.assoc name t.Explain.cache_after
    - List.assoc name t.Explain.cache_before
  in
  let first = explain () in
  Alcotest.(check int) "first explain builds the env" 1
    (delta first "env.misses");
  let second = explain () in
  Alcotest.(check int) "second explain builds no env" 0
    (delta second "env.misses");
  Alcotest.(check int) "second explain hits the env" 1
    (delta second "env.hits");
  Alcotest.(check int) "second explain computes no tree" 0
    (delta second "tree.misses");
  Alcotest.(check int) "stats agree: one env built" 1
    (Context.stats ctx).Context.env_misses;
  Alcotest.(check int) "stats agree: trees computed once"
    (delta first "tree.misses")
    (Context.stats ctx).Context.tree_misses;
  check_bits "same answer" first.Explain.riskroute.Explain.bit_risk_miles
    second.Explain.riskroute.Explain.bit_risk_miles

(* Landmarks prepared through the Env-free facade serve the first
   explain: both facades build their arcs with [Env.csr_arcs], so the
   geometry fingerprint, and with it every landmark tree, is shared. *)
let test_net_query_landmarks_serve_explain () =
  let ctx = Context.create () in
  let q = Context.net_query ctx (Context.continental ctx ~pops:2000) in
  Rr_graph.Query.prepare q;
  let t = explain_exn ctx ~net:"continental-2000" ~src:"Chicago" ~dst:"Miami" in
  let delta name =
    List.assoc name t.Explain.cache_after
    - List.assoc name t.Explain.cache_before
  in
  Alcotest.(check int) "no tree computed" 0 (delta "tree.misses");
  Alcotest.(check int) "seed and landmark trees all hit"
    (1 + Array.length (Rr_graph.Query.landmark_sources q))
    (delta "tree.hits");
  Alcotest.(check string) "served by alt" "alt"
    t.Explain.riskroute.Explain.runner

(* Fingerprints come from Context's memo and name the same content a
   fresh hash of the env does. *)
let test_fingerprints_are_the_envs () =
  let ctx = Context.create () in
  let net = Context.require_net ctx "Level3" in
  let pop city = Option.get (Rr_topology.Net.find_pop net ~city) in
  let sandy = Rr_forecast.Track.advisories Rr_forecast.Track.sandy in
  List.iter
    (fun (label, advisory) ->
      let t =
        match
          Explain.explain ?advisory ctx net ~src:(pop "Houston")
            ~dst:(pop "Boston")
        with
        | Ok t -> t
        | Error e -> Alcotest.failf "explain failed: %s" e
      in
      let env = Context.env ?advisory ctx net in
      let fp name = List.assoc_opt name t.Explain.fingerprints in
      Alcotest.(check (option string)) (label ^ ": geometry")
        (Some (Rr_engine.Fingerprint.env_geometry env)) (fp "geometry");
      Alcotest.(check (option string)) (label ^ ": risk")
        (Some (Rr_engine.Fingerprint.env_risk env)) (fp "risk");
      Alcotest.(check (option string)) (label ^ ": advisory")
        (Some (Rr_engine.Fingerprint.advisory advisory)) (fp "advisory"))
    [ ("no storm", None); ("sandy 40", Some (List.nth sandy 40)) ]

(* Outside input cannot select an arbitrarily large topology. *)
let test_continental_size_bound () =
  let ok = Alcotest.(result (option int) string) in
  Alcotest.check ok "smallest" (Ok (Some 1))
    (Explain.continental_pops "continental-1");
  Alcotest.check ok "largest, any case" (Ok (Some 50_000))
    (Explain.continental_pops "Continental-50000");
  Alcotest.check ok "corpus name" (Ok None) (Explain.continental_pops "Level3");
  Alcotest.check ok "not a size" (Ok None)
    (Explain.continental_pops "continental-abc");
  let names_range label = function
    | Ok _ -> Alcotest.failf "%s accepted" label
    | Error e ->
      Alcotest.(check bool) (label ^ " names the range") true
        (let needle = string_of_int Explain.max_continental_pops in
         let n = String.length needle and m = String.length e in
         let rec go i =
           i + n <= m && (String.sub e i n = needle || go (i + 1))
         in
         go 0)
  in
  names_range "continental-50001"
    (Explain.continental_pops "continental-50001");
  names_range "continental-0" (Explain.continental_pops "continental-0");
  let ctx = Context.create () in
  names_range "explain_named"
    (Explain.explain_named ctx ~net:"continental-50000000" ~src:"0" ~dst:"1");
  names_range "of_query"
    (Explain.of_query ctx
       [ ("net", "continental-50000000"); ("src", "0"); ("dst", "1") ]);
  Alcotest.(check int) "nothing built" 0 (Context.env_cache_length ctx)

(* The env cache is an LRU: a stream of distinct lambda_h values stays
   within capacity, and an evicted environment rebuilds bit-identically. *)
let test_env_cache_bounded () =
  Rr_obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Rr_obs.set_enabled false) @@ fun () ->
  let evictions = Rr_obs.Counter.make "engine.cache.env_evictions" in
  let e0 = Rr_obs.Counter.value evictions in
  let cap = Context.env_cache_cap in
  let ctx = Context.create () in
  let net = Context.require_net ctx "Globalcenter" in
  let dst = Rr_topology.Net.pop_count net - 1 in
  let lambda i = 1e5 +. (1e3 *. float_of_int i) in
  let explain ctx i =
    let params =
      Riskroute.Params.with_lambda_h (lambda i) Riskroute.Params.default
    in
    match Explain.explain ~params ctx net ~src:0 ~dst with
    | Ok t ->
      Explain.to_json { t with Explain.cache_before = []; cache_after = [] }
    | Error e -> Alcotest.failf "explain lambda_h=%g: %s" (lambda i) e
  in
  for i = 0 to (2 * cap) do
    ignore (explain ctx i);
    if Context.env_cache_length ctx > cap then
      Alcotest.failf "env cache holds %d > %d after %d explains"
        (Context.env_cache_length ctx) cap (i + 1)
  done;
  Alcotest.(check int) "full at capacity" cap (Context.env_cache_length ctx);
  Alcotest.(check int) "evictions counted" (cap + 1)
    (Rr_obs.Counter.value evictions - e0);
  let misses = (Context.stats ctx).Context.env_misses in
  let again = explain ctx 0 in
  Alcotest.(check int) "the evicted env is rebuilt" (misses + 1)
    (Context.stats ctx).Context.env_misses;
  Alcotest.(check string) "rebuilt explain equals a fresh context's"
    (explain (Context.create ()) 0) again

(* --- the JSON document --- *)

let test_json_roundtrip () =
  let ctx = Context.create () in
  let t = explain_exn ctx ~net:"Level3" ~src:"Houston" ~dst:"Boston" in
  let j =
    match Json.parse (Explain.to_json t) with
    | Ok j -> j
    | Error e -> Alcotest.failf "explain JSON does not parse: %s" e
  in
  let get path j =
    List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path
  in
  Alcotest.(check (option int)) "schema" (Some Explain.schema_version)
    (Option.bind (get [ "schema" ] j) Json.to_int);
  Alcotest.(check (option string)) "network name" (Some "Level3")
    (Option.bind (get [ "net" ] j) Json.to_str);
  Alcotest.(check bool) "exactness flag serialized" true
    (Option.bind (get [ "riskroute"; "decomposition_exact" ] j) (function
      | Json.Bool b -> Some b
      | _ -> None)
    = Some true);
  (* %.17g round-trips doubles: the parsed total is the record's total,
     bit for bit — external verifiers can re-fold the arcs. *)
  (match
     Option.bind (get [ "riskroute"; "bit_risk_miles" ] j) Json.to_num
   with
  | Some v ->
    check_bits "serialized total round-trips"
      t.Explain.riskroute.Explain.bit_risk_miles v
  | None -> Alcotest.fail "no riskroute.bit_risk_miles in JSON");
  (match Option.bind (get [ "riskroute"; "arcs" ] j) Json.to_arr with
  | Some arcs ->
    Alcotest.(check int) "every arc serialized"
      (List.length t.Explain.riskroute.Explain.arcs)
      (List.length arcs)
  | None -> Alcotest.fail "no riskroute.arcs in JSON");
  match Option.bind (get [ "top_pops" ] j) Json.to_arr with
  | Some pops ->
    Alcotest.(check bool) "top_pops bounded by top_k" true
      (List.length pops <= 5)
  | None -> Alcotest.fail "no top_pops in JSON"

(* --- the JSON bytes against a literal Printf reference ---

   [Explain.to_json] appends straight to a Buffer. This is the
   renderer it replaced, one [Printf.sprintf] per field, kept verbatim
   as the definition of the document's bytes. *)

module Reference_json = struct
  open Explain

  let fl f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0.0"

  let escape b s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 32 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

  let str b s =
    Buffer.add_char b '"';
    escape b s;
    Buffer.add_char b '"'

  let arc_json b a =
    Buffer.add_string b
      (Printf.sprintf "{\"tail\": %d, \"head\": %d, \"tail_name\": " a.tail
         a.head);
    str b a.tail_name;
    Buffer.add_string b ", \"head_name\": ";
    str b a.head_name;
    Buffer.add_string b
      (Printf.sprintf
         ", \"miles\": %s, \"hist\": %s, \"fcst\": %s, \"weight\": %s}"
         (fl a.miles) (fl a.hist) (fl a.fcst) (fl a.weight))

  let side_json b s =
    Buffer.add_string b "{\n      \"path\": [";
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string b ", ";
        Buffer.add_string b (string_of_int v))
      s.path;
    Buffer.add_string b "],\n      \"pops\": [";
    List.iteri
      (fun i name ->
        if i > 0 then Buffer.add_string b ", ";
        str b name)
      s.names;
    Buffer.add_string b
      (Printf.sprintf
         "],\n\
         \      \"bit_miles\": %s,\n\
         \      \"bit_risk_miles\": %s,\n\
         \      \"term_sum\": %s,\n\
         \      \"decomposition_exact\": %b,\n\
         \      \"hist_contribution\": %s,\n\
         \      \"fcst_contribution\": %s,\n\
         \      \"runner\": \"%s\",\n\
         \      \"settled\": %d,\n\
         \      \"arcs\": [" (fl s.bit_miles) (fl s.bit_risk_miles)
         (fl s.term_sum) s.exact (fl s.hist_contribution)
         (fl s.fcst_contribution) s.runner s.settled);
    List.iteri
      (fun i a ->
        Buffer.add_string b (if i = 0 then "\n        " else ",\n        ");
        arc_json b a)
      s.arcs;
    Buffer.add_string b (if s.arcs = [] then "]\n    }" else "\n      ]\n    }")

  let to_json t =
    let b = Buffer.create 4096 in
    let add = Buffer.add_string b in
    add (Printf.sprintf "{\n  \"schema\": %d,\n  \"net\": " schema_version);
    str b t.net;
    add
      (Printf.sprintf ",\n  \"nodes\": %d,\n  \"src\": {\"id\": %d, \"name\": "
         t.nodes t.src);
    str b t.src_name;
    add
      (Printf.sprintf ", \"impact\": %s},\n  \"dst\": {\"id\": %d, \"name\": "
         (fl t.impact_src) t.dst);
    str b t.dst_name;
    add
      (Printf.sprintf ", \"impact\": %s},\n  \"kappa\": %s,\n"
         (fl t.impact_dst) (fl t.kappa));
    let p = t.params in
    add
      (Printf.sprintf
         "  \"params\": {\"lambda_h\": %s, \"lambda_f\": %s, \"risk_scale\": \
          %s, \"rho_tropical\": %s, \"rho_hurricane\": %s},\n"
         (fl p.Riskroute.Params.lambda_h) (fl p.Riskroute.Params.lambda_f)
         (fl p.Riskroute.Params.risk_scale)
         (fl p.Riskroute.Params.rho_tropical)
         (fl p.Riskroute.Params.rho_hurricane));
    (match t.advisory with
    | None -> add "  \"advisory\": null,\n"
    | Some a ->
      add "  \"advisory\": ";
      str b a;
      add ",\n");
    add "  \"riskroute\": ";
    side_json b t.riskroute;
    add ",\n  \"shortest\": ";
    side_json b t.shortest;
    add
      (Printf.sprintf
         ",\n\
         \  \"diff\": {\"diverted\": %b, \"extra_miles\": %s, \"extra_hops\": \
          %d, \"risk_avoided\": %s, \"hist_avoided\": %s, \"fcst_avoided\": \
          %s, \"bit_risk_delta\": %s},\n"
         t.diff.diverted (fl t.diff.extra_miles) t.diff.extra_hops
         (fl t.diff.risk_avoided) (fl t.diff.hist_avoided)
         (fl t.diff.fcst_avoided) (fl t.diff.bit_risk_delta));
    add "  \"top_pops\": [";
    List.iteri
      (fun i c ->
        if i > 0 then add ", ";
        add (Printf.sprintf "{\"id\": %d, \"name\": " c.node);
        str b c.name;
        add (Printf.sprintf ", \"risk\": %s}" (fl c.risk)))
      t.top_pops;
    add "],\n  \"top_arcs\": [";
    List.iteri
      (fun i a ->
        if i > 0 then add ", ";
        arc_json b a)
      t.top_arcs;
    add "],\n  \"provenance\": {\n    \"fingerprints\": {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then add ", ";
        str b k;
        add ": ";
        str b v)
      t.fingerprints;
    add "},\n    \"cache_before\": {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then add ", ";
        str b k;
        add (Printf.sprintf ": %d" v))
      t.cache_before;
    add "},\n    \"cache_after\": {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then add ", ";
        str b k;
        add (Printf.sprintf ": %d" v))
      t.cache_after;
    add (Printf.sprintf "},\n    \"domains\": %d\n  }\n}\n" t.domains);
    Buffer.contents b
end

let check_json_bytes label t =
  let expected = Reference_json.to_json t and got = Explain.to_json t in
  if not (String.equal expected got) then begin
    let n = min (String.length expected) (String.length got) in
    let rec first i =
      if i < n && expected.[i] = got.[i] then first (i + 1) else i
    in
    let i = first 0 in
    let around s =
      String.sub s (max 0 (i - 40)) (min (String.length s - max 0 (i - 40)) 80)
    in
    Alcotest.failf "%s: JSON differs from the reference at byte %d:\n%S\n%S"
      label i (around expected) (around got)
  end

let test_json_bytes_continental () =
  let ctx = Context.create () in
  let pops = 10_000 in
  let rng = Random.State.make [| 0xe7 |] in
  for i = 1 to 64 do
    let src = Random.State.int rng pops in
    let dst = (src + 1 + Random.State.int rng (pops - 1)) mod pops in
    match Explain.explain_continental ctx ~pops ~src ~dst with
    | Ok t ->
      check_json_bytes
        (Printf.sprintf "continental-10000 pair %d (%d -> %d)" i src dst)
        t
    | Error e -> Alcotest.failf "explain %d -> %d failed: %s" src dst e
  done

let test_json_bytes_storm () =
  let ctx = Context.create () in
  check_json_bytes "Level3 Houston -> Boston, Sandy advisory 40"
    (explain_exn ~storm:"sandy" ctx ~net:"Level3" ~src:"Houston"
       ~dst:"Boston")

(* Names that need every escape, and the floats whose rendering has
   edge cases: signed zero, the smallest subnormal, the largest
   magnitudes, a non-terminating binary fraction, integral values, and
   the non-finite values the document clamps to 0.0. *)
let test_json_bytes_synthetic () =
  let ctx = Context.create () in
  let t = explain_exn ctx ~net:"Level3" ~src:"Houston" ~dst:"Boston" in
  let names =
    [| "quote \" mark"; "back\\slash"; "new\nline\r\ttab"; "ctl \001\031\127";
       ""; "caf\xc3\xa9" |]
  in
  let floats =
    [| -0.0; 5e-324; 1e308; -1e308; 0.1; 3.0; -42.0; 1e15; 1e16; nan;
       infinity; neg_infinity; Float.max_float; Float.min_float |]
  in
  let name i = names.(i mod Array.length names) in
  let fv i = floats.(i mod Array.length floats) in
  let arc i =
    { Explain.tail = i; head = -i; tail_name = name i; head_name = name (i + 1);
      miles = fv i; hist = fv (i + 1); fcst = fv (i + 2); weight = fv (i + 3) }
  in
  let side label k =
    { t.Explain.riskroute with
      Explain.label;
      names = Array.to_list names;
      arcs = List.init (Array.length floats) (fun i -> arc (i + k));
      bit_miles = fv k;
      bit_risk_miles = fv (k + 1);
      term_sum = fv (k + 2);
      exact = k mod 2 = 0;
      hist_contribution = fv (k + 3);
      fcst_contribution = fv (k + 4);
      settled = max_int }
  in
  let synthetic =
    { t with
      Explain.net = name 0;
      src_name = name 1;
      dst_name = name 2;
      src = min_int;
      advisory = Some (name 3);
      impact_src = fv 0;
      impact_dst = fv 9;
      kappa = fv 10;
      riskroute = side "riskroute" 0;
      shortest = { (side "shortest" 1) with Explain.arcs = []; path = [] };
      diff =
        { Explain.diverted = true; extra_miles = fv 1; extra_hops = -3;
          risk_avoided = fv 2; hist_avoided = fv 11; fcst_avoided = fv 12;
          bit_risk_delta = fv 13 };
      top_pops =
        List.init 6 (fun i -> { Explain.node = i; name = name i; risk = fv i });
      top_arcs = List.init 3 arc;
      fingerprints = [ (name 0, name 2); (name 4, name 5) ];
      cache_before = [ (name 1, -1); (name 5, 0) ];
      cache_after = [];
    }
  in
  check_json_bytes "synthetic record" synthetic;
  check_json_bytes "synthetic record, no advisory"
    { synthetic with Explain.advisory = None }

(* --- the query front door (the /explain provider body) --- *)

let test_of_query () =
  let ctx = Context.create () in
  (match
     Explain.of_query ctx
       [ ("net", "Level3"); ("src", "Houston"); ("dst", "Boston") ]
   with
  | Error e -> Alcotest.failf "of_query failed: %s" e
  | Ok body -> (
    match Json.parse body with
    | Error e -> Alcotest.failf "of_query body does not parse: %s" e
    | Ok j ->
      Alcotest.(check (option string)) "query body names the net"
        (Some "Level3")
        (Option.bind (Json.member "net" j) Json.to_str)));
  (match Explain.of_query ctx [ ("net", "Level3"); ("src", "Houston") ] with
  | Ok _ -> Alcotest.fail "missing dst accepted"
  | Error e ->
    Alcotest.(check bool) "missing parameter named" true
      (let needle = "dst" in
       let n = String.length needle and m = String.length e in
       let rec go i =
         i + n <= m && (String.sub e i n = needle || go (i + 1))
       in
       go 0));
  match Explain.of_query ctx [ ("net", "nope"); ("src", "a"); ("dst", "b") ] with
  | Ok _ -> Alcotest.fail "unknown network accepted"
  | Error e -> Alcotest.(check bool) "unknown network is an error" true (e <> "")

(* --- telemetry --- *)

let test_counters_bump () =
  Rr_obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Rr_obs.set_enabled false) @@ fun () ->
  let requests = Rr_obs.Counter.make "explain.requests" in
  let errors = Rr_obs.Counter.make "explain.errors" in
  let seconds = Rr_obs.Histogram.make "explain.seconds" in
  let r0 = Rr_obs.Counter.value requests in
  let e0 = Rr_obs.Counter.value errors in
  let h0 = (Rr_obs.Histogram.snapshot seconds).Rr_obs.Histogram.count in
  let ctx = Context.create () in
  ignore (explain_exn ctx ~net:"Level3" ~src:"Houston" ~dst:"Boston");
  Alcotest.(check int) "a request is counted" (r0 + 1)
    (Rr_obs.Counter.value requests);
  Alcotest.(check int) "a success is not an error" e0
    (Rr_obs.Counter.value errors);
  Alcotest.(check int) "latency observed" (h0 + 1)
    (Rr_obs.Histogram.snapshot seconds).Rr_obs.Histogram.count;
  (match Explain.explain_named ctx ~net:"Level3" ~src:"Houston" ~dst:"Nope" with
  | Ok _ -> Alcotest.fail "unknown pop accepted"
  | Error _ -> ());
  Alcotest.(check int) "a failure is counted as an error" (e0 + 1)
    (Rr_obs.Counter.value errors)

let () =
  Alcotest.run "explain"
    [
      ( "decomposition",
        [
          Alcotest.test_case "corpus exact at pool sizes 1/2/4" `Quick
            test_corpus_exact_all_pools;
          Alcotest.test_case "sides are the router's answers" `Quick
            test_sides_match_router;
          Alcotest.test_case "storm overlay exact" `Quick
            test_storm_overlay_exact;
          Alcotest.test_case "continental exact at pool sizes 1/2/4" `Quick
            test_continental_exact_all_pools;
          Alcotest.test_case "second continental explain is cached" `Quick
            test_continental_second_explain_cached;
          Alcotest.test_case "net_query landmarks serve explain" `Quick
            test_net_query_landmarks_serve_explain;
          Alcotest.test_case "fingerprints are the env's" `Quick
            test_fingerprints_are_the_envs;
        ] );
      ( "surfaces",
        [
          Alcotest.test_case "json round-trips bit-for-bit" `Quick
            test_json_roundtrip;
          Alcotest.test_case "json bytes = Printf reference, continental"
            `Slow test_json_bytes_continental;
          Alcotest.test_case "json bytes = Printf reference, storm" `Quick
            test_json_bytes_storm;
          Alcotest.test_case "json bytes = Printf reference, edge values"
            `Quick test_json_bytes_synthetic;
          Alcotest.test_case "query front door" `Quick test_of_query;
          Alcotest.test_case "explain counters bump" `Quick test_counters_bump;
          Alcotest.test_case "continental size bound" `Quick
            test_continental_size_bound;
          Alcotest.test_case "env cache bounded" `Quick test_env_cache_bounded;
        ] );
    ]
