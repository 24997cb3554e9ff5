open Rr_util

(* Point-to-point query facade over a CSR geometry.

   Two runners share one per-domain workspace:

   - Plain: the [Dijkstra] kernel's loop verbatim (same push order,
     same strict [nd < dist] test), so costs, paths and equal-cost
     tie-breaks are bit-identical to [Dijkstra.single_pair_flat].
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

   The two loops stay separate: Plain run as Alt under a zero potential
   answers the same but timed slower on the Tier-1 analyses' searches
   that have no destination tree.

   Workspaces live in domain-local storage: the router is called from
   inside [Parallel.map_array] sweeps, so each domain keeps its own
   dist/parent/settled arrays, heap and touched-node list, restored to
   pristine after every query by undoing only the touched entries. *)

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
  mutable cap : int;
  (* pristine between queries: infinity / -1 / false *)
  mutable dist : float array;
  mutable parent : int array;
  mutable settled : bool array;
  heap : int Heap.t;
  (* every node whose label was written this query (duplicates fine) *)
  mutable touched : int array;
  mutable touched_len : int;
  (* potential memo, validated by a per-query stamp *)
  mutable pi : float array;
  mutable pi_stamp : int array;
  mutable stamp : int;
}

let fresh_ws () =
  {
    busy = Atomic.make false;
    cap = 0;
    dist = [||];
    parent = [||];
    settled = [||];
    heap = Heap.create ();
    touched = [||];
    touched_len = 0;
    pi = [||];
    pi_stamp = [||];
    stamp = 0;
  }

let ws_key : ws Domain.DLS.key = Domain.DLS.new_key fresh_ws

(* Systhreads of one domain share its workspace (the live plane's
   [/explain] handler runs beside the main thread), and a weight
   closure may itself start a query. So a query claims the workspace
   with a compare-and-set, and a caller that finds it taken works in a
   fresh one sized to this call. *)
let claim_ws n =
  let ws = Domain.DLS.get ws_key in
  let ws =
    if Atomic.compare_and_set ws.busy false true then ws
    else begin
      let ws = fresh_ws () in
      Atomic.set ws.busy true;
      ws
    end
  in
  if ws.cap < n then begin
    ws.cap <- n;
    ws.dist <- Array.make n infinity;
    ws.parent <- Array.make n (-1);
    ws.settled <- Array.make n false;
    if Array.length ws.touched = 0 then
      ws.touched <- Array.make (max 16 n) 0;
    ws.pi <- Array.make n 0.0;
    ws.pi_stamp <- Array.make n 0;
    ws.stamp <- 0;
    Heap.ensure_capacity ws.heap (max 16 n)
  end;
  ws

let touch ws v =
  if ws.touched_len = Array.length ws.touched then begin
    let a = Array.make (2 * ws.touched_len) 0 in
    Array.blit ws.touched 0 a 0 ws.touched_len;
    ws.touched <- a
  end;
  ws.touched.(ws.touched_len) <- v;
  ws.touched_len <- ws.touched_len + 1

(* Undo only what this query wrote; cheaper than O(n) refills and keeps
   the arrays pristine even when a run raises (negative weight). *)
let reset_ws ws =
  for i = 0 to ws.touched_len - 1 do
    let v = ws.touched.(i) in
    ws.dist.(v) <- infinity;
    ws.parent.(v) <- -1;
    ws.settled.(v) <- false
  done;
  ws.touched_len <- 0;
  Heap.clear ws.heap

let release_ws ws =
  reset_ws ws;
  Atomic.set ws.busy false

(* ------------------------------------------------------------------ *)
(* Landmark preparation                                               *)

let default_tree t src =
  Dijkstra.single_source_flat ~n:t.n ~off:t.off ~tgt:t.tgt
    ~weight:(fun k -> Array.unsafe_get t.miles k)
    ~src

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
   dist(v, t) in any metric where arc weights dominate bit-miles.
   Landmark terms involving an unreachable endpoint are skipped (the
   difference is infinite or NaN and bounds nothing). *)
let potential t ~dst =
  match t.landmarks with
  | None -> None
  | Some lm ->
    let l = Array.length lm.sources in
    let dt = Array.init l (fun i -> lm.trees.(i).(dst)) in
    Some
      (fun v ->
        let p = ref 0.0 in
        for i = 0 to l - 1 do
          let a = Array.unsafe_get lm.trees.(i) v -. Array.unsafe_get dt i in
          if Float.is_finite a then begin
            let a = Float.abs a in
            if a > !p then p := a
          end
        done;
        !p)

(* ------------------------------------------------------------------ *)
(* Runners (src <> dst, both validated, workspace pristine on entry)  *)

let build_path parent ~src ~dst =
  let rec build acc v = if v = src then src :: acc else build (v :: acc) parent.(v) in
  build [] dst

let run_plain t ~weight ~src ~dst =
  let ws = claim_ws t.n in
  let dist = ws.dist and parent = ws.parent and settled = ws.settled in
  let heap = ws.heap in
  let off = t.off and tgt = t.tgt in
  let settles = ref 0 in
  Fun.protect ~finally:(fun () -> release_ws ws) @@ fun () ->
  dist.(src) <- 0.0;
  touch ws src;
  Heap.push heap 0.0 src;
  let finished = ref false in
  while (not !finished) && not (Heap.is_empty heap) do
    let d = Heap.min_key heap in
    let u = Heap.min_elt heap in
    Heap.drop_min heap;
    if not settled.(u) then begin
      settled.(u) <- true;
      incr settles;
      if u = dst then finished := true
      else
        for k = Array.unsafe_get off u to Array.unsafe_get off (u + 1) - 1 do
          let v = Array.unsafe_get tgt k in
          if not (Array.unsafe_get settled v) then begin
            let w = weight k in
            if w < 0.0 then invalid_arg "Dijkstra: negative edge weight";
            let nd = d +. w in
            if nd < Array.unsafe_get dist v then begin
              Array.unsafe_set dist v nd;
              Array.unsafe_set parent v u;
              Heap.push heap nd v;
              touch ws v
            end
          end
        done
    end
  done;
  let result =
    if dist.(dst) = infinity then None
    else Some (dist.(dst), build_path parent ~src ~dst)
  in
  (result, !settles)

let run_alt t ~weight ~pot ~src ~dst =
  let ws = claim_ws t.n in
  let dist = ws.dist and parent = ws.parent and settled = ws.settled in
  let heap = ws.heap in
  let off = t.off and tgt = t.tgt in
  ws.stamp <- ws.stamp + 1;
  let stamp = ws.stamp in
  let pi = ws.pi and pi_stamp = ws.pi_stamp in
  let potential v =
    if Array.unsafe_get pi_stamp v = stamp then Array.unsafe_get pi v
    else begin
      let p = pot v in
      Array.unsafe_set pi v p;
      Array.unsafe_set pi_stamp v stamp;
      p
    end
  in
  let settles = ref 0 in
  Fun.protect ~finally:(fun () -> release_ws ws) @@ fun () ->
  dist.(src) <- 0.0;
  touch ws src;
  Heap.push heap (potential src) src;
  let finished = ref false in
  while (not !finished) && not (Heap.is_empty heap) do
    let u = Heap.min_elt heap in
    Heap.drop_min heap;
    if not settled.(u) then begin
      settled.(u) <- true;
      incr settles;
      if u = dst then finished := true
      else begin
        (* Raw label, not the heap key: keys carry the potential, labels
           stay the same left-folds the plain runner accumulates. *)
        let d = Array.unsafe_get dist u in
        for k = Array.unsafe_get off u to Array.unsafe_get off (u + 1) - 1 do
          let v = Array.unsafe_get tgt k in
          if not (Array.unsafe_get settled v) then begin
            let w = weight k in
            if w < 0.0 then invalid_arg "Dijkstra: negative edge weight";
            let nd = d +. w in
            if nd < Array.unsafe_get dist v then begin
              Array.unsafe_set dist v nd;
              Array.unsafe_set parent v u;
              Heap.push heap (nd +. potential v) v;
              touch ws v
            end
          end
        done
      end
    end
  done;
  let result =
    if dist.(dst) = infinity then None
    else Some (dist.(dst), build_path parent ~src ~dst)
  in
  (result, !settles)

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
let run_stats ?runner ?toward t ~weight ~src ~dst =
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
    match r with
    | Plain ->
      let result, settles = run_plain t ~weight ~src ~dst in
      Rr_obs.Counter.incr c_plain_runs;
      Rr_obs.Counter.add c_plain_settled settles;
      (result, Plain, settles)
    | Alt ->
      let pot =
        match toward with
        | Some a ->
          Rr_obs.Counter.incr c_alt_toward;
          fun v -> Array.unsafe_get a v
        | None -> (
          if not (prepared t) then prepare t;
          match potential t ~dst with
          | Some f -> f
          | None -> fun _ -> 0.0 (* unreachable: prepare always succeeds *))
      in
      let result, settles = run_alt t ~weight ~pot ~src ~dst in
      Rr_obs.Counter.incr c_alt_runs;
      Rr_obs.Counter.add c_alt_settled settles;
      (result, Alt, settles)
  end

let run ?runner ?toward t ~weight ~src ~dst =
  let result, _, _ = run_stats ?runner ?toward t ~weight ~src ~dst in
  result

let runner_name = function Plain -> "plain" | Alt -> "alt"
