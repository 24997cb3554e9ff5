(* Rr_explain — route provenance and attribution (see DESIGN.md 3i).

   Everything here is re-derivation, not re-implementation: per-arc
   terms come from Riskroute.Metric.term (whose products replay
   Env.compute_node_risk bitwise), arc weights are the same data
   Router hands to Rr_graph.Query, and route totals are the query costs
   themselves. Corpus and continental networks share one pipeline over
   the Env that Context caches, and the fingerprints come from Context's
   memo. The headline invariant — the left fold of per-arc term weights
   equals the engine's bit-risk-mile total bit-for-bit — therefore holds
   by construction, and [side.exact] asserts it on every explained route
   rather than trusting the argument. *)

let c_requests = Rr_obs.Counter.make "explain.requests"

let c_errors = Rr_obs.Counter.make "explain.errors"

let h_seconds = Rr_obs.Histogram.make "explain.seconds"

let schema_version = 1

type arc = {
  tail : int;
  head : int;
  tail_name : string;
  head_name : string;
  miles : float;  (** [d(tail, head)] *)
  hist : float;  (** [lambda_h * risk_scale * o_h(head)] *)
  fcst : float;  (** [lambda_f * o_f(head)] *)
  weight : float;  (** [miles + kappa * (hist + fcst)] *)
}

type side = {
  label : string;
  path : int list;
  names : string list;
  arcs : arc list;
  bit_miles : float;
  bit_risk_miles : float;
  term_sum : float;
  exact : bool;
  hist_contribution : float;
  fcst_contribution : float;
  runner : string;
  settled : int;
}

type diff = {
  diverted : bool;
  extra_miles : float;
  extra_hops : int;
  risk_avoided : float;
  hist_avoided : float;
  fcst_avoided : float;
  bit_risk_delta : float;
}

type contributor = { node : int; name : string; risk : float }

type t = {
  net : string;
  nodes : int;
  src : int;
  dst : int;
  src_name : string;
  dst_name : string;
  params : Riskroute.Params.t;
  advisory : string option;
  impact_src : float;
  impact_dst : float;
  kappa : float;
  riskroute : side;
  shortest : side;
  diff : diff;
  top_pops : contributor list;
  top_arcs : arc list;
  fingerprints : (string * string) list;
  cache_before : (string * int) list;
  cache_after : (string * int) list;
  domains : int;
}

let bits = Int64.bits_of_float

(* --- side assembly ---

   [term_of a b] returns the decomposed weight of arc (a, b);
   [risk_total] is the engine's bit-risk-mile figure for the path (the
   query cost on the riskroute side, the Metric fold on the shortest
   side). [exact] re-checks the decomposition invariant at runtime. *)
let side_of ~label ~name_of ~kappa ~term_of ~risk_total ~runner ~settled path =
  let arcs =
    let rec go acc = function
      | a :: (b :: _ as rest) -> go (term_of a b :: acc) rest
      | [ _ ] | [] -> List.rev acc
    in
    go [] path
  in
  let term_sum = List.fold_left (fun acc a -> acc +. a.weight) 0.0 arcs in
  {
    label;
    path;
    names = List.map name_of path;
    arcs;
    bit_miles = List.fold_left (fun acc a -> acc +. a.miles) 0.0 arcs;
    bit_risk_miles = risk_total;
    term_sum;
    exact = bits term_sum = bits risk_total;
    hist_contribution =
      List.fold_left (fun acc a -> acc +. (kappa *. a.hist)) 0.0 arcs;
    fcst_contribution =
      List.fold_left (fun acc a -> acc +. (kappa *. a.fcst)) 0.0 arcs;
    runner;
    settled;
  }

let diff_of ~riskroute ~shortest =
  {
    diverted = riskroute.path <> shortest.path;
    extra_miles = riskroute.bit_miles -. shortest.bit_miles;
    extra_hops = List.length riskroute.path - List.length shortest.path;
    risk_avoided =
      shortest.hist_contribution +. shortest.fcst_contribution
      -. (riskroute.hist_contribution +. riskroute.fcst_contribution);
    hist_avoided = shortest.hist_contribution -. riskroute.hist_contribution;
    fcst_avoided = shortest.fcst_contribution -. riskroute.fcst_contribution;
    bit_risk_delta = shortest.bit_risk_miles -. riskroute.bit_risk_miles;
  }

(* Top-k PoPs by summed risk contribution along the riskroute path (the
   source is never charged — Eq. 1 sums over arc heads), and top-k arcs
   by the same figure. Ties break on node/arc order for determinism. *)
let top_pops ~top_k ~kappa (side : side) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun a ->
      let r = kappa *. (a.hist +. a.fcst) in
      let prev =
        match Hashtbl.find_opt tbl a.head with
        | Some (_, r) -> r
        | None -> 0.0
      in
      Hashtbl.replace tbl a.head (a.head_name, prev +. r))
    side.arcs;
  let all =
    Hashtbl.fold (fun node (name, risk) acc -> { node; name; risk } :: acc) tbl []
  in
  let sorted =
    List.sort
      (fun a b ->
        match compare b.risk a.risk with 0 -> compare a.node b.node | c -> c)
      all
  in
  List.filteri (fun i _ -> i < top_k) sorted

let top_arcs ~top_k ~kappa (side : side) =
  let risk a = kappa *. (a.hist +. a.fcst) in
  let sorted =
    List.sort
      (fun a b ->
        match compare (risk b) (risk a) with
        | 0 -> compare (a.tail, a.head) (b.tail, b.head)
        | c -> c)
      side.arcs
  in
  List.filteri (fun i _ -> i < top_k) sorted

let default_top_k = 5

let with_observed f =
  let tel = Rr_obs.enabled () in
  let t0 = if tel then Rr_obs.Clock.monotonic () else 0.0 in
  Rr_obs.Counter.incr c_requests;
  let r = Rr_obs.with_span "explain.route" f in
  if tel then Rr_obs.Histogram.observe h_seconds (Rr_obs.Clock.monotonic () -. t0);
  (match r with Error _ -> Rr_obs.Counter.incr c_errors | Ok _ -> ());
  r

(* --- the Env pipeline, corpus and continental --- *)

let explain ?params ?advisory ?(top_k = default_top_k) ctx net ~src ~dst =
  with_observed @@ fun () ->
  let n = Rr_topology.Net.pop_count net in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    Error
      (Printf.sprintf "PoP id out of range for %s (want 0..%d)"
         net.Rr_topology.Net.name (n - 1))
  else begin
    let cache_before = Rr_engine.Context.stats_fields ctx in
    let env = Rr_engine.Context.env ?params ?advisory ctx net in
    (* [Query.choose] picks ALT past 1,024 PoPs and prepares its
       landmarks from the tree LRU on the first query. *)
    let q = Rr_engine.Context.query ctx env in
    let kappa = Riskroute.Env.kappa env src dst in
    (* The exact weights Router.riskroute / Router.shortest use. *)
    let w_miles = Rr_graph.Dijkstra.Miles (Riskroute.Env.arc_miles env) in
    let w_risk = Riskroute.Env.eq1_weight env ~kappa in
    let name_of i = (Rr_topology.Net.pop net i).Rr_topology.Pop.name in
    let term_of a b =
      let t = Riskroute.Metric.term env a b in
      {
        tail = a;
        head = b;
        tail_name = name_of a;
        head_name = name_of b;
        miles = t.Riskroute.Metric.miles;
        hist = t.Riskroute.Metric.hist;
        fcst = t.Riskroute.Metric.fcst;
        weight = Riskroute.Metric.term_weight ~kappa t;
      }
    in
    match
      ( Rr_graph.Query.search q ~weight:w_risk ~src ~dst,
        Rr_graph.Query.search q ~weight:w_miles ~src ~dst )
    with
    | (None, _, _), _ | _, (None, _, _) ->
      Error
        (Printf.sprintf "%s and %s are disconnected in %s" (name_of src)
           (name_of dst) net.Rr_topology.Net.name)
    | ( (Some (rr_cost, rr_path), rr_runner, rr_settled),
        (Some (_sh_cost, sh_path), sh_runner, sh_settled) ) ->
      let riskroute =
        side_of ~label:"riskroute" ~name_of ~kappa ~term_of
          ~risk_total:rr_cost
          ~runner:(Rr_graph.Query.runner_name rr_runner)
          ~settled:rr_settled rr_path
      in
      let shortest =
        side_of ~label:"shortest" ~name_of ~kappa ~term_of
          ~risk_total:(Riskroute.Metric.bit_risk_miles_kappa env ~kappa sh_path)
          ~runner:(Rr_graph.Query.runner_name sh_runner)
          ~settled:sh_settled sh_path
      in
      let impact = Riskroute.Env.impact env in
      let params = Riskroute.Env.params env in
      Ok
        {
          net = net.Rr_topology.Net.name;
          nodes = n;
          src;
          dst;
          src_name = name_of src;
          dst_name = name_of dst;
          params;
          advisory =
            Option.map
              (fun (a : Rr_forecast.Advisory.t) ->
                Printf.sprintf "%s advisory %d" a.Rr_forecast.Advisory.storm
                  a.Rr_forecast.Advisory.number)
              advisory;
          impact_src = impact.(src);
          impact_dst = impact.(dst);
          kappa;
          riskroute;
          shortest;
          diff = diff_of ~riskroute ~shortest;
          top_pops = top_pops ~top_k ~kappa riskroute;
          top_arcs = top_arcs ~top_k ~kappa riskroute;
          fingerprints =
            [
              ("params", Rr_engine.Fingerprint.params params);
              ("advisory", Rr_engine.Fingerprint.advisory advisory);
              ("geometry", Rr_engine.Context.geometry_fp ctx env);
              ("risk", Rr_engine.Context.risk_fp ctx env);
            ];
          cache_before;
          cache_after = Rr_engine.Context.stats_fields ctx;
          domains = Rr_util.Parallel.domain_count ();
        }
  end

let explain_continental ?params ?top_k ctx ~pops ~src ~dst =
  explain ?params ?top_k ctx (Rr_engine.Context.continental ctx ~pops) ~src ~dst

(* --- name-based entry point (CLI, /explain) --- *)

let max_continental_pops = 50_000

let continental_pops name =
  let prefix = "continental-" in
  let plen = String.length prefix in
  if
    String.length name > plen
    && String.lowercase_ascii (String.sub name 0 plen) = prefix
  then
    let size = String.sub name plen (String.length name - plen) in
    match int_of_string_opt size with
    | Some pops when pops >= 1 && pops <= max_continental_pops -> Ok (Some pops)
    | _ when String.for_all (function '0' .. '9' -> true | _ -> false) size ->
      Error
        (Printf.sprintf "unsupported size %s (continental-<pops> takes 1..%d)"
           name max_continental_pops)
    | _ -> Ok None
  else Ok None

let resolve_pop net ~what name =
  match Rr_topology.Net.find_pop net ~city:name with
  | Some i -> Ok i
  | None -> (
    (* Fall back to a numeric PoP id: continental names are synthetic
       enough that scripts prefer ids. *)
    match int_of_string_opt (String.trim name) with
    | Some i when i >= 0 && i < Rr_topology.Net.pop_count net -> Ok i
    | Some _ | None ->
      Error
        (Printf.sprintf "no %s PoP %S in %s" what name
           net.Rr_topology.Net.name))

let explain_named ?lambda_h ?storm ?(tick = 40) ?top_k ctx ~net ~src ~dst =
  let params =
    Option.map
      (fun l -> Riskroute.Params.with_lambda_h l Riskroute.Params.default)
      lambda_h
  in
  let resolve_advisory storm =
    match Rr_forecast.Track.find storm with
    | None ->
      Error (Printf.sprintf "unknown storm %S (irene|katrina|sandy)" storm)
    | Some s ->
      let advisories = Array.of_list (Rr_forecast.Track.advisories s) in
      if tick < 0 || tick >= Array.length advisories then
        Error
          (Printf.sprintf "advisory tick %d out of range for %s (0..%d)" tick
             storm
             (Array.length advisories - 1))
      else Ok advisories.(tick)
  in
  match continental_pops net with
  | Error e ->
    Rr_obs.Counter.incr c_errors;
    Error e
  | Ok (Some pops) ->
    if storm <> None then
      Error
        (Printf.sprintf
           "storm overlays are not supported on continental-%d (no forecast \
            surface at this scale)"
           pops)
    else begin
      let topology = Rr_engine.Context.continental ctx ~pops in
      match
        ( resolve_pop topology ~what:"source" src,
          resolve_pop topology ~what:"destination" dst )
      with
      | Ok src, Ok dst ->
        explain_continental ?params ?top_k ctx ~pops ~src ~dst
      | Error e, _ | _, Error e ->
        Rr_obs.Counter.incr c_errors;
        Error e
    end
  | Ok None -> (
    match Rr_engine.Context.net ctx net with
    | None ->
      Rr_obs.Counter.incr c_errors;
      Error (Printf.sprintf "unknown network %S; try `riskroute networks`" net)
    | Some topology -> (
      let advisory =
        match storm with
        | None -> Ok None
        | Some s -> Result.map Option.some (resolve_advisory s)
      in
      match
        ( advisory,
          resolve_pop topology ~what:"source" src,
          resolve_pop topology ~what:"destination" dst )
      with
      | Ok advisory, Ok src, Ok dst ->
        explain ?params ?advisory ?top_k ctx topology ~src ~dst
      | Error e, _, _ | _, Error e, _ | _, _, Error e ->
        Rr_obs.Counter.incr c_errors;
        Error e))

(* --- /explain provider --- *)

let of_query ctx params =
  let find k = Option.map snd (List.find_opt (fun (k', _) -> k' = k) params) in
  let required k =
    match find k with
    | Some v when String.trim v <> "" -> Ok (String.trim v)
    | Some _ | None ->
      Error (Printf.sprintf "missing query parameter %S (want ?net=..&src=..&dst=..)" k)
  in
  let optional_float k =
    match find k with
    | None -> Ok None
    | Some v -> (
      match float_of_string_opt (String.trim v) with
      | Some f when Float.is_finite f -> Ok (Some f)
      | Some _ | None ->
        Error (Printf.sprintf "invalid query parameter %s=%S (want a number)" k v))
  in
  let optional_int k =
    match find k with
    | None -> Ok None
    | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some i -> Ok (Some i)
      | None ->
        Error
          (Printf.sprintf "invalid query parameter %s=%S (want an integer)" k v))
  in
  match
    (required "net", required "src", required "dst", optional_float "lambda_h",
     optional_int "tick")
  with
  | Ok net, Ok src, Ok dst, Ok lambda_h, Ok tick ->
    let tick = Option.value tick ~default:40 in
    explain_named ?lambda_h ?storm:(find "storm") ~tick ctx ~net ~src ~dst
  | Error e, _, _, _, _
  | _, Error e, _, _, _
  | _, _, Error e, _, _
  | _, _, _, Error e, _
  | _, _, _, _, Error e ->
    Rr_obs.Counter.incr c_errors;
    Error e

(* --- JSON rendering ---

   %.17g round-trips every finite double exactly, so a consumer summing
   the per-arc terms reproduces the OCaml fold bit-for-bit (CI does
   exactly that in python). Fields are appended straight to the Buffer,
   each helper writing its literal prefix and then the value. Floats go
   through {!Rr_util.Float_text.add_g17}, whose bytes are
   [Printf.sprintf "%.17g"]'s for every double; it writes the digits of
   the record's floats (about four per arc) without the C library's
   formatter, which was most of the rendering time. *)

let fl b lit f =
  Buffer.add_string b lit;
  if Float.is_finite f then Rr_util.Float_text.add_g17 b f
  else Buffer.add_string b "0.0"

let int b lit i =
  Buffer.add_string b lit;
  Buffer.add_string b (string_of_int i)

let bool b lit v =
  Buffer.add_string b lit;
  Buffer.add_string b (if v then "true" else "false")

let str b lit s =
  Buffer.add_string b lit;
  Buffer.add_char b '"';
  Rr_obs.json_escape b s;
  Buffer.add_char b '"'

let sep i = if i > 0 then ", " else ""

let arc_json b lit a =
  Buffer.add_string b lit;
  int b "{\"tail\": " a.tail;
  int b ", \"head\": " a.head;
  str b ", \"tail_name\": " a.tail_name;
  str b ", \"head_name\": " a.head_name;
  fl b ", \"miles\": " a.miles;
  fl b ", \"hist\": " a.hist;
  fl b ", \"fcst\": " a.fcst;
  fl b ", \"weight\": " a.weight;
  Buffer.add_char b '}'

let side_json b s =
  Buffer.add_string b "{\n      \"path\": [";
  List.iteri (fun i v -> int b (sep i) v) s.path;
  Buffer.add_string b "],\n      \"pops\": [";
  List.iteri (fun i name -> str b (sep i) name) s.names;
  fl b "],\n      \"bit_miles\": " s.bit_miles;
  fl b ",\n      \"bit_risk_miles\": " s.bit_risk_miles;
  fl b ",\n      \"term_sum\": " s.term_sum;
  bool b ",\n      \"decomposition_exact\": " s.exact;
  fl b ",\n      \"hist_contribution\": " s.hist_contribution;
  fl b ",\n      \"fcst_contribution\": " s.fcst_contribution;
  Buffer.add_string b ",\n      \"runner\": \"";
  Buffer.add_string b s.runner;
  int b "\",\n      \"settled\": " s.settled;
  Buffer.add_string b ",\n      \"arcs\": [";
  List.iteri
    (fun i a -> arc_json b (if i = 0 then "\n        " else ",\n        ") a)
    s.arcs;
  Buffer.add_string b (if s.arcs = [] then "]\n    }" else "\n      ]\n    }")

let to_json t =
  (* An arc record with its path entry takes about 250 bytes, and the
     rest of the document about 2 KB. *)
  let arcs =
    List.length t.riskroute.arcs + List.length t.shortest.arcs
    + List.length t.top_arcs
  in
  let b = Buffer.create (2048 + (256 * arcs)) in
  let add = Buffer.add_string b in
  int b "{\n  \"schema\": " schema_version;
  str b ",\n  \"net\": " t.net;
  int b ",\n  \"nodes\": " t.nodes;
  int b ",\n  \"src\": {\"id\": " t.src;
  str b ", \"name\": " t.src_name;
  fl b ", \"impact\": " t.impact_src;
  int b "},\n  \"dst\": {\"id\": " t.dst;
  str b ", \"name\": " t.dst_name;
  fl b ", \"impact\": " t.impact_dst;
  fl b "},\n  \"kappa\": " t.kappa;
  let p = t.params in
  fl b ",\n  \"params\": {\"lambda_h\": " p.Riskroute.Params.lambda_h;
  fl b ", \"lambda_f\": " p.Riskroute.Params.lambda_f;
  fl b ", \"risk_scale\": " p.Riskroute.Params.risk_scale;
  fl b ", \"rho_tropical\": " p.Riskroute.Params.rho_tropical;
  fl b ", \"rho_hurricane\": " p.Riskroute.Params.rho_hurricane;
  add "},\n";
  (match t.advisory with
  | None -> add "  \"advisory\": null,\n"
  | Some a ->
    str b "  \"advisory\": " a;
    add ",\n");
  add "  \"riskroute\": ";
  side_json b t.riskroute;
  add ",\n  \"shortest\": ";
  side_json b t.shortest;
  let d = t.diff in
  bool b ",\n  \"diff\": {\"diverted\": " d.diverted;
  fl b ", \"extra_miles\": " d.extra_miles;
  int b ", \"extra_hops\": " d.extra_hops;
  fl b ", \"risk_avoided\": " d.risk_avoided;
  fl b ", \"hist_avoided\": " d.hist_avoided;
  fl b ", \"fcst_avoided\": " d.fcst_avoided;
  fl b ", \"bit_risk_delta\": " d.bit_risk_delta;
  add "},\n  \"top_pops\": [";
  List.iteri
    (fun i c ->
      add (sep i);
      int b "{\"id\": " c.node;
      str b ", \"name\": " c.name;
      fl b ", \"risk\": " c.risk;
      Buffer.add_char b '}')
    t.top_pops;
  add "],\n  \"top_arcs\": [";
  List.iteri (fun i a -> arc_json b (sep i) a) t.top_arcs;
  add "],\n  \"provenance\": {\n    \"fingerprints\": {";
  List.iteri
    (fun i (k, v) ->
      str b (sep i) k;
      str b ": " v)
    t.fingerprints;
  let counts l =
    List.iteri
      (fun i (k, v) ->
        str b (sep i) k;
        int b ": " v)
      l
  in
  add "},\n    \"cache_before\": {";
  counts t.cache_before;
  add "},\n    \"cache_after\": {";
  counts t.cache_after;
  int b "},\n    \"domains\": " t.domains;
  add "\n  }\n}\n";
  Buffer.contents b

let of_query ctx params = Result.map to_json (of_query ctx params)

(* --- human-readable rendering --- *)

let cache_delta t name =
  let get l = Option.value (List.assoc_opt name l) ~default:0 in
  get t.cache_after - get t.cache_before

let pp ppf t =
  let open Format in
  fprintf ppf "route provenance: %s  %s (%d) -> %s (%d)@." t.net t.src_name
    t.src t.dst_name t.dst;
  fprintf ppf
    "params: lambda_h=%g lambda_f=%g risk_scale=%g; advisory: %s@."
    t.params.Riskroute.Params.lambda_h t.params.Riskroute.Params.lambda_f
    t.params.Riskroute.Params.risk_scale
    (Option.value t.advisory ~default:"none");
  fprintf ppf "kappa = c_i + c_j = %.6f + %.6f = %.6f@.@." t.impact_src
    t.impact_dst t.kappa;
  let side s =
    fprintf ppf
      "%s: %.0f bit-miles, %.0f bit-risk-miles [%s, %d settled; \
       decomposition %s]@."
      s.label s.bit_miles s.bit_risk_miles s.runner s.settled
      (if s.exact then "exact" else "INEXACT");
    fprintf ppf "  %-44s %10s %12s %12s %12s@." "arc" "miles" "k*hist"
      "k*fcst" "weight";
    List.iter
      (fun a ->
        fprintf ppf "  %-44s %10.1f %12.1f %12.1f %12.1f@."
          (a.tail_name ^ " -> " ^ a.head_name)
          a.miles (t.kappa *. a.hist) (t.kappa *. a.fcst) a.weight)
      s.arcs;
    fprintf ppf "  %-44s %10.1f %12.1f %12.1f %12.1f@.@." "total" s.bit_miles
      s.hist_contribution s.fcst_contribution s.term_sum
  in
  side t.riskroute;
  side t.shortest;
  if t.diff.diverted then
    fprintf ppf
      "risk detour: +%.1f bit-miles (%+d hops) buys %.1f lower risk \
       (historical %.1f, forecast %.1f) => bit-risk miles down %.1f@."
      t.diff.extra_miles t.diff.extra_hops t.diff.risk_avoided
      t.diff.hist_avoided t.diff.fcst_avoided t.diff.bit_risk_delta
  else fprintf ppf "no divergence: riskroute follows the shortest path@.";
  if t.top_pops <> [] then begin
    fprintf ppf "top risk PoPs on the riskroute path:@.";
    List.iteri
      (fun i c ->
        fprintf ppf "  %d. %-40s k*risk %12.1f@." (i + 1) c.name c.risk)
      t.top_pops
  end;
  if t.top_arcs <> [] then begin
    fprintf ppf "top risk arcs on the riskroute path:@.";
    List.iteri
      (fun i a ->
        fprintf ppf "  %d. %-40s k*risk %12.1f@." (i + 1)
          (a.tail_name ^ " -> " ^ a.head_name)
          (t.kappa *. (a.hist +. a.fcst)))
      t.top_arcs
  end;
  fprintf ppf "provenance:@.";
  List.iter (fun (k, v) -> fprintf ppf "  %-10s %s@." k v) t.fingerprints;
  fprintf ppf
    "  caches     env %s, trees %s (+%d hit / +%d miss), occupancy %d/%d@."
    (if cache_delta t "env.misses" > 0 then "miss" else "hit")
    (if cache_delta t "tree.misses" > 0 then "miss" else "hit")
    (cache_delta t "tree.hits")
    (cache_delta t "tree.misses")
    (Option.value (List.assoc_opt "tree.cache_length" t.cache_after) ~default:0)
    (Option.value
       (List.assoc_opt "tree.cache_capacity" t.cache_after)
       ~default:0);
  fprintf ppf "  domains    %d@." t.domains
