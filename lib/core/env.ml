(* The environment is immutable after construction: every distance and
   risk term is materialised into flat arrays up front, so routing sweeps
   can fan out across domains with nothing but read sharing.

   - [arc_off]/[arc_tgt] is the graph in CSR form ([Graph.to_csr]);
     [arc_miles]/[arc_risk] carry the per-arc distance and target-node
     risk, so the Dijkstra relaxation weighs arc [k] as
     [arc_miles.(k) +. kappa *. arc_risk.(k)] — no hashing, no closure
     over coordinates, no trigonometry. Per-arc miles are computed once
     per undirected edge and mirrored through [arc_mate], which pairs
     each arc with its reverse and is what lets [patch] enumerate the
     in-arcs of a changed PoP in O(degree). Pairs that are not arcs
     (candidate links) pay one great-circle evaluation in
     [link_miles]; no n x n matrix is kept, so 10k-50k-PoP continental
     environments build like any other.
   - [mean_kappa] is summed once per build: no derivative changes
     [impact], so every [{t with ...}] copy shares it. *)
type t = {
  graph : Rr_graph.Graph.t;
  coords : Rr_geo.Coord.t array;
  params : Params.t;
  impact : float array;
  mean_kappa : float;
  historical : float array;
  forecast : float array;
  node_risk : float array;
  arc_off : int array;
  arc_tgt : int array;
  arc_mate : int array;
  arc_miles : float array;
  arc_risk : float array;
  query : Rr_graph.Query.t;
}

let c_builds = Rr_obs.Counter.make "env.builds"

let c_csr_arcs = Rr_obs.Counter.make "env.csr_arcs"

let c_nodes = Rr_obs.Counter.make "env.nodes"

let h_build = Rr_obs.Histogram.make "env.build_seconds"

let compute_node_risk params historical forecast =
  Array.init (Array.length historical) (fun i ->
      (params.Params.lambda_h *. params.Params.risk_scale *. historical.(i))
      +. (params.Params.lambda_f *. forecast.(i)))

(* Great-circle miles with the lower-numbered endpoint first: the one
   evaluation both [csr_arcs] and [link_miles] make for a pair. *)
let pair_miles coords u v =
  if u = v then 0.0
  else if u < v then Rr_geo.Distance.miles coords.(u) coords.(v)
  else Rr_geo.Distance.miles coords.(v) coords.(u)

let csr_arcs graph coords =
  let arc_off, arc_tgt = Rr_graph.Graph.to_csr graph in
  let arc_mate = Rr_graph.Graph.csr_mates ~off:arc_off ~tgt:arc_tgt in
  let arc_miles = Array.make (Array.length arc_tgt) 0.0 in
  for u = 0 to Rr_graph.Graph.node_count graph - 1 do
    for k = arc_off.(u) to arc_off.(u + 1) - 1 do
      let v = arc_tgt.(k) in
      if u < v then begin
        let d = pair_miles coords u v in
        arc_miles.(k) <- d;
        arc_miles.(arc_mate.(k)) <- d
      end
    done
  done;
  (arc_off, arc_tgt, arc_mate, arc_miles)

let compute_arc_risk node_risk arc_tgt =
  Array.map (fun v -> node_risk.(v)) arc_tgt

let make ?(params = Params.default) ~graph ~coords ~impact ~historical
    ?forecast () =
  Rr_obs.with_kernel "env.make" (fun () ->
      let tel = Rr_obs.enabled () in
      let t0 = if tel then Rr_obs.Clock.monotonic () else 0.0 in
      Params.validate params;
      let n = Rr_graph.Graph.node_count graph in
      let forecast =
        match forecast with Some f -> f | None -> Array.make n 0.0
      in
      if
        Array.length coords <> n || Array.length impact <> n
        || Array.length historical <> n
        || Array.length forecast <> n
      then invalid_arg "Env.make: array lengths must match the node count";
      let node_risk = compute_node_risk params historical forecast in
      let arc_off, arc_tgt, arc_mate, arc_miles = csr_arcs graph coords in
      let query =
        Rr_graph.Query.create ~n ~off:arc_off ~tgt:arc_tgt ~miles:arc_miles ()
      in
      if tel then begin
        Rr_obs.Counter.incr c_builds;
        Rr_obs.Counter.add c_nodes n;
        Rr_obs.Counter.add c_csr_arcs (Array.length arc_tgt);
        Rr_obs.Histogram.observe h_build (Rr_obs.Clock.monotonic () -. t0)
      end;
      {
        graph;
        coords;
        params;
        impact;
        mean_kappa = 2.0 *. Rr_util.Arrayx.fsum impact /. float_of_int n;
        historical;
        forecast;
        node_risk;
        arc_off;
        arc_tgt;
        arc_mate;
        arc_miles;
        arc_risk = compute_arc_risk node_risk arc_tgt;
        query;
      })

let forecast_of_advisory params coords advisory =
  Array.map
    (fun coord ->
      Rr_forecast.Riskfield.risk_at
        ~rho_tropical:params.Params.rho_tropical
        ~rho_hurricane:params.Params.rho_hurricane advisory coord)
    coords

let of_net ?(params = Params.default) ?riskmap ?impact ?advisory
    (net : Rr_topology.Net.t) =
  Rr_obs.with_kernel "env.of_net" (fun () ->
      let riskmap =
        match riskmap with Some r -> r | None -> Rr_disaster.Riskmap.shared ()
      in
      let coords =
        Array.map (fun (p : Rr_topology.Pop.t) -> p.Rr_topology.Pop.coord)
          net.Rr_topology.Net.pops
      in
      let impact =
        match impact with
        | Some i -> i
        | None -> Rr_census.Service.shared_fractions net
      in
      let historical = Rr_disaster.Riskmap.pop_risks riskmap net in
      let forecast =
        Option.map (forecast_of_advisory params coords) advisory
      in
      make ~params ~graph:net.Rr_topology.Net.graph ~coords ~impact ~historical
        ?forecast ())

(* Risk refreshes (new forecast tick, new params) recompute only the
   O(n + arcs) risk vectors; the CSR layout and arc miles are shared
   with the parent environment. *)
let with_node_risk t node_risk =
  { t with node_risk; arc_risk = compute_arc_risk node_risk t.arc_tgt }

let with_forecast t forecast =
  if Array.length forecast <> Array.length t.forecast then
    invalid_arg "Env.with_forecast: length mismatch";
  let t = with_node_risk t (compute_node_risk t.params t.historical forecast) in
  { t with forecast }

let with_advisory t advisory =
  match advisory with
  | None -> with_forecast t (Array.make (Array.length t.forecast) 0.0)
  | Some adv -> with_forecast t (forecast_of_advisory t.params t.coords adv)

let with_params t params =
  Params.validate params;
  let t = with_node_risk t (compute_node_risk params t.historical t.forecast) in
  { t with params }

let with_graph t graph =
  let n = Array.length t.coords in
  if Rr_graph.Graph.node_count graph <> n then
    invalid_arg "Env.with_graph: node-count mismatch";
  let arc_off, arc_tgt, arc_mate, arc_miles = csr_arcs graph t.coords in
  {
    t with
    graph;
    arc_off;
    arc_tgt;
    arc_mate;
    arc_miles;
    arc_risk = compute_arc_risk t.node_risk arc_tgt;
    query = Rr_graph.Query.create ~n ~off:arc_off ~tgt:arc_tgt ~miles:arc_miles ();
  }

(* --- Sparse advisory-tick patching ----------------------------------

   [patch] re-derives the risk vectors for a sparse forecast delta
   without touching geometry: the O(n) forecast/node-risk copies plus
   O(degree) arc-risk writes per changed PoP replace a full [of_net]
   rebuild. The result is bit-identical to [with_forecast] on the
   patched field (CI-gated) because the changed entries are computed
   with exactly the [compute_node_risk] expression and [arc_risk]
   mirrors [node_risk] of the arc target either way. *)

type patched = {
  env : t;
  changed_pops : int array;
  patched_arcs : (int * int) array;
      (* (arc index, arc source): every arc whose target's risk changed *)
}

let patch t ~indices ~values =
  Rr_obs.with_span "env.patch" @@ fun () ->
  let n = Array.length t.coords in
  let m = Array.length indices in
  if Array.length values <> m then
    invalid_arg "Env.patch: indices/values length mismatch";
  Array.iteri
    (fun j i ->
      if i < 0 || i >= n then invalid_arg "Env.patch: index out of range";
      if j > 0 && indices.(j - 1) >= i then
        invalid_arg "Env.patch: indices must be strictly increasing")
    indices;
  let materially_changed =
    let changed = ref false in
    Array.iteri
      (fun j i ->
        if
          Int64.bits_of_float values.(j)
          <> Int64.bits_of_float t.forecast.(i)
        then changed := true)
      indices;
    !changed
  in
  if not materially_changed then
    (* The delta is a no-op bitwise: the parent env IS the patched env. *)
    { env = t; changed_pops = [||]; patched_arcs = [||] }
  else begin
    let forecast = Array.copy t.forecast in
    let node_risk = Array.copy t.node_risk in
    let arc_risk = Array.copy t.arc_risk in
    let changed = ref [] and arcs = ref [] in
    Array.iteri
      (fun j i ->
        let v = values.(j) in
        forecast.(i) <- v;
        let nr =
          (t.params.Params.lambda_h *. t.params.Params.risk_scale
         *. t.historical.(i))
          +. (t.params.Params.lambda_f *. v)
        in
        if Int64.bits_of_float nr <> Int64.bits_of_float node_risk.(i) then begin
          node_risk.(i) <- nr;
          changed := i :: !changed;
          (* Arcs into [i] are the mates of [i]'s out-arcs. *)
          for k = t.arc_off.(i) to t.arc_off.(i + 1) - 1 do
            let into = t.arc_mate.(k) in
            arc_risk.(into) <- nr;
            arcs := (into, t.arc_tgt.(k)) :: !arcs
          done
        end)
      indices;
    {
      env = { t with forecast; node_risk; arc_risk };
      changed_pops = Array.of_list (List.rev !changed);
      patched_arcs = Array.of_list (List.rev !arcs);
    }
  end

let graph t = t.graph

let coords t = t.coords

let params t = t.params

let impact t = t.impact

let historical t = t.historical

let forecast t = t.forecast

let node_risk t v = t.node_risk.(v)

let node_count t = Array.length t.coords

let link_miles t u v = pair_miles t.coords u v

let arc_off t = t.arc_off

let arc_tgt t = t.arc_tgt

let arc_mate t = t.arc_mate

let arc_miles t = t.arc_miles

let arc_risk t = t.arc_risk

let arc_count t = Array.length t.arc_tgt

let kappa t i j = t.impact.(i) +. t.impact.(j)

let eq1_weight t ~kappa =
  Rr_graph.Dijkstra.Eq1 { miles = t.arc_miles; risk = t.arc_risk; kappa }

let mean_kappa t = t.mean_kappa

let edge_weight t ~kappa u v = link_miles t u v +. (kappa *. t.node_risk.(v))

let query t = t.query
