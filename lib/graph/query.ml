(* Point-to-point query facade over a CSR geometry: the workspace
   claim, the landmarks and the runner choice. The search itself is
   [Dijkstra.search], one loop for both runners:

   - Plain: the [Dijkstra.Zero] potential, whose heap keys are the
     labels, so costs, paths, equal-cost tie-breaks and settled counts
     are those of [Dijkstra.single_pair_flat].
   - Alt: A* (goal-directed) under one of two potentials. Landmark
     lower bounds come from pure bit-miles distance trees, which stay
     admissible for every RiskRoute objective because risk only adds
     non-negative weight on top of miles: w(k) >= miles(k) implies the
     triangle-inequality bound still underestimates. A destination
     tree is the exact bit-miles distance to dst; with mirrored arc
     miles a Dijkstra tree satisfies pi(u) <= pi(v) +. miles(v,u), so
     it is consistent under every dominating weight. Raw labels are the
     same left-folds Plain computes, so settled distances are
     bit-identical.

   One loop serves both because the potential is data: [Zero] costs one
   match per push, where a zero-potential closure would cost a call.

   Workspaces live in domain-local storage: the router is called from
   inside [Parallel.map_array] sweeps, so each domain keeps its own
   labels, heap and touched-node list, restored to pristine after every
   query by undoing only the touched entries. *)

type runner = Plain | Alt

type landmarks = {
  sources : int array;
  trees : float array array;  (* trees.(i).(v) = bit-miles dist from sources.(i) *)
}

type t = {
  n : int;
  off : int array;
  tgt : int array;
  miles : float array;
  landmark_count : int;
  lock : Mutex.t;
  mutable tree_provider : (int -> Dijkstra.tree) option;
  mutable landmarks : landmarks option;
}

let c_plain_runs = Rr_obs.Counter.make "query.plain.runs"
let c_plain_settled = Rr_obs.Counter.make "query.plain.settled"
let c_alt_runs = Rr_obs.Counter.make "query.alt.runs"
let c_alt_settled = Rr_obs.Counter.make "query.alt.settled"
let c_alt_toward = Rr_obs.Counter.make "query.alt.toward"
let c_preps = Rr_obs.Counter.make "query.landmark_preps"

let default_landmark_count = 16

let create ?(landmark_count = default_landmark_count) ~n ~off ~tgt ~miles () =
  if landmark_count < 1 then
    invalid_arg "Query.create: landmark_count < 1";
  if Array.length off <> n + 1 || Array.length miles <> Array.length tgt then
    invalid_arg "Query.create: inconsistent CSR arrays";
  {
    n;
    off;
    tgt;
    miles;
    landmark_count;
    lock = Mutex.create ();
    tree_provider = None;
    landmarks = None;
  }

let node_count t = t.n
let arc_off t = t.off
let arc_tgt t = t.tgt
let arc_miles t = t.miles

let set_tree_provider t provider =
  Mutex.lock t.lock;
  t.tree_provider <- Some provider;
  Mutex.unlock t.lock

(* ------------------------------------------------------------------ *)
(* Per-domain workspace                                               *)

type ws = {
  busy : bool Atomic.t;  (* claimed by a running query *)
  space : Dijkstra.workspace;
}

let fresh_ws () = { busy = Atomic.make false; space = Dijkstra.workspace () }

let ws_key : ws Domain.DLS.key = Domain.DLS.new_key fresh_ws

(* Systhreads of one domain share its workspace (the live plane's
   [/explain] handler runs beside the main thread), and a weight
   closure may itself start a query. So a query claims the workspace
   with a compare-and-set, and a caller that finds it taken works in a
   fresh one for this call. *)
let claim_ws () =
  let ws = Domain.DLS.get ws_key in
  if Atomic.compare_and_set ws.busy false true then ws
  else begin
    let ws = fresh_ws () in
    Atomic.set ws.busy true;
    ws
  end

(* ------------------------------------------------------------------ *)
(* Landmark preparation                                               *)

let default_tree t src =
  Dijkstra.single_source_flat ~n:t.n ~off:t.off ~tgt:t.tgt
    ~weight:(Dijkstra.Miles t.miles) ~src

let prepared t = t.landmarks <> None

(* Farthest-point selection: seed with the node farthest from node 0,
   then repeatedly add the node maximising the min bit-miles distance to
   the chosen set. Unreachable nodes (infinite min-distance) win the
   argmax, so extra components get their own landmark. Deterministic:
   ties break towards the smaller id. *)
let prepare t =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  match t.landmarks with
  | Some _ -> ()
  | None ->
    Rr_obs.Counter.incr c_preps;
    let tree =
      match t.tree_provider with
      | Some f -> fun src -> (f src).Dijkstra.dist
      | None -> fun src -> (default_tree t src).Dijkstra.dist
    in
    let count = max 1 (min t.landmark_count t.n) in
    let sources = Array.make count 0 in
    let trees = Array.make count [||] in
    (* Seed: farthest reachable node from node 0 (node 0 itself when the
       graph is a single node or has no finite eccentricity). *)
    let d0 = tree 0 in
    let seed = ref 0 and seed_d = ref neg_infinity in
    for v = 0 to t.n - 1 do
      let d = d0.(v) in
      if Float.is_finite d && d > !seed_d then begin
        seed_d := d;
        seed := v
      end
    done;
    sources.(0) <- !seed;
    let mind = Array.make t.n infinity in
    for i = 0 to count - 1 do
      let di = tree sources.(i) in
      trees.(i) <- di;
      if i + 1 < count then begin
        for v = 0 to t.n - 1 do
          if di.(v) < mind.(v) then mind.(v) <- di.(v)
        done;
        let best = ref 0 and best_d = ref neg_infinity in
        for v = 0 to t.n - 1 do
          let d = mind.(v) in
          if d > !best_d then begin
            best_d := d;
            best := v
          end
        done;
        sources.(i + 1) <- !best
      end
    done;
    t.landmarks <- Some { sources; trees }

let landmark_sources t =
  match t.landmarks with
  | None -> [||]
  | Some lm -> Array.copy lm.sources

(* pi_t(v) = max_L |d_L(v) - d_L(t)|: a valid, consistent lower bound on
   dist(v, t) in any metric where arc weights dominate bit-miles. *)
let potential t ~dst =
  match t.landmarks with
  | None -> None
  | Some lm ->
    if dst < 0 || dst >= t.n then invalid_arg "Query.potential: dst out of range";
    let pot = Dijkstra.Landmarks lm.trees in
    Some (fun v -> Dijkstra.potential_at pot ~dst v)

(* ------------------------------------------------------------------ *)
(* Dispatch                                                           *)

(* Up to [plain_threshold] nodes the goal-directed machinery costs more
   than it saves (landmark prep is [landmark_count] full sweeps); past
   it, landmark prep amortises after a handful of queries, and with a
   tree provider the landmark trees come from a shared cache. *)
let plain_threshold = 1024

let choose t = if t.n <= plain_threshold then Plain else Alt

(* A destination tree is the exact bit-miles distance to [dst], which
   bounds every dominating weight from below at no setup cost, so a
   query that brings one is served by the Alt loop at any size. *)
let search ?runner ?toward t ~weight ~src ~dst =
  if src < 0 || src >= t.n then invalid_arg "Dijkstra: source out of range";
  if dst < 0 || dst >= t.n then
    invalid_arg "Dijkstra: destination out of range";
  (match toward with
  | Some a when Array.length a <> t.n ->
    invalid_arg "Query.run: toward has the wrong length"
  | Some a when a.(dst) <> 0.0 ->
    invalid_arg "Query.run: toward is not rooted at dst"
  | _ -> ());
  if src = dst then (Some (0.0, [ src ]), Plain, 0)
  else begin
    let r =
      match (runner, toward) with
      | Some r, _ -> r
      | None, Some _ -> Alt
      | None, None -> choose t
    in
    let potential =
      match (r, toward) with
      | Plain, _ -> Dijkstra.Zero
      | Alt, Some a ->
        Rr_obs.Counter.incr c_alt_toward;
        Dijkstra.Toward a
      | Alt, None ->
        if not (prepared t) then prepare t;
        (* [prepare] always leaves landmarks. *)
        Dijkstra.Landmarks (Option.get t.landmarks).trees
    in
    let ws = claim_ws () in
    let result, settles =
      match
        Dijkstra.search ws.space ~n:t.n ~off:t.off ~tgt:t.tgt ~weight
          ~potential ~src ~dst
      with
      | r ->
        Atomic.set ws.busy false;
        r
      | exception e ->
        Atomic.set ws.busy false;
        raise e
    in
    (match r with
    | Plain ->
      Rr_obs.Counter.incr c_plain_runs;
      Rr_obs.Counter.add c_plain_settled settles
    | Alt ->
      Rr_obs.Counter.incr c_alt_runs;
      Rr_obs.Counter.add c_alt_settled settles);
    (result, r, settles)
  end

let run_stats ?runner ?toward t ~weight ~src ~dst =
  search ?runner ?toward t ~weight:(Dijkstra.Fn weight) ~src ~dst

let run ?runner ?toward t ~weight ~src ~dst =
  let result, _, _ = run_stats ?runner ?toward t ~weight ~src ~dst in
  result

let runner_name = function Plain -> "plain" | Alt -> "alt"
