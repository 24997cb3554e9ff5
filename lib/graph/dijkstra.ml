open Rr_util

type tree = { dist : float array; parent : int array }

(* Kernel counters. The CSR kernel tallies into stack-local refs on
   every run and flushes them to the sharded counters once at the end,
   only when telemetry is enabled, so routing with telemetry off pays a
   few register increments per pop and one flag read per run.
   Relaxations count the full arc range of each expanded node. *)
let c_runs = Rr_obs.Counter.make "dijkstra.runs"

let c_relaxations = Rr_obs.Counter.make "dijkstra.relaxations"

let c_heap_pushes = Rr_obs.Counter.make "dijkstra.heap_pushes"

let c_heap_pops = Rr_obs.Counter.make "dijkstra.heap_pops"

let c_early_stops = Rr_obs.Counter.make "dijkstra.early_stops"

let c_gc_minor_words = Rr_obs.Counter.make "dijkstra.gc_minor_words"

(* The kernel over a CSR adjacency ([Graph.to_csr] layout): the edge
   relaxation loop walks an int array by index and weighs arcs through a
   single [int -> float] lookup — in the RiskRoute hot path that lookup
   is two float-array reads and a fused multiply-add, with no hashing,
   no list traversal and no great-circle trigonometry. An [infinity]
   weight never passes the strict [nd < dist] test, so it removes the
   arc. Stops early once node [stop] (-1 for none) is settled. *)
let run_flat ~n ~off ~tgt ~weight ~src ~stop =
  if src < 0 || src >= n then invalid_arg "Dijkstra: source out of range";
  let tel = Rr_obs.enabled () in
  let dist = Array.make n infinity in
  let parent = Array.make n (-1) in
  let settled = Array.make n false in
  let heap = Heap.create ~capacity:(max 16 n) () in
  dist.(src) <- 0.0;
  Heap.push heap 0.0 src;
  (* [Gc.minor_words] is domain-local and allocation-free, so a counted
     run can afford an allocation delta: a run that starts boxing floats
     again shows up here before it shows up as wall-clock. *)
  let gc0 = if tel then Gc.minor_words () else 0.0 in
  let relaxations = ref 0 and pushes = ref 1 and pops = ref 0 in
  let finished = ref false in
  while (not !finished) && not (Heap.is_empty heap) do
    let d = Heap.min_key heap in
    let u = Heap.min_elt heap in
    Heap.drop_min heap;
    incr pops;
    if not settled.(u) then begin
      settled.(u) <- true;
      if u = stop then finished := true
      else begin
        (* In-bounds by construction: [u < n] (heap only holds pushed
           nodes), so [off] reads are valid, and CSR targets satisfy
           [tgt.(k) < n]. Unsafe accesses keep the relaxation loop free
           of bounds checks — this is the innermost loop of every sweep. *)
        let lo = Array.unsafe_get off u and hi = Array.unsafe_get off (u + 1) in
        relaxations := !relaxations + (hi - lo);
        for k = lo to hi - 1 do
          let v = Array.unsafe_get tgt k in
          if not (Array.unsafe_get settled v) then begin
            let w = weight k in
            if w < 0.0 then invalid_arg "Dijkstra: negative edge weight";
            let nd = d +. w in
            if nd < Array.unsafe_get dist v then begin
              Array.unsafe_set dist v nd;
              Array.unsafe_set parent v u;
              Heap.push heap nd v;
              incr pushes
            end
          end
        done
      end
    end
  done;
  if tel then begin
    Rr_obs.Counter.incr c_runs;
    Rr_obs.Counter.add c_relaxations !relaxations;
    Rr_obs.Counter.add c_heap_pushes !pushes;
    Rr_obs.Counter.add c_heap_pops !pops;
    if !finished then Rr_obs.Counter.incr c_early_stops;
    Rr_obs.Counter.add c_gc_minor_words (int_of_float (Gc.minor_words () -. gc0))
  end;
  { dist; parent }

let single_source_flat ~n ~off ~tgt ~weight ~src =
  run_flat ~n ~off ~tgt ~weight ~src ~stop:(-1)

(* --- Incremental repair (Ramalingam–Reps-style) ---------------------

   [repair] patches an existing tree after a sparse set of arc-weight
   changes instead of re-running Dijkstra from scratch. The contract is
   strict: the result must be bit-identical (dist AND parent) to a fresh
   [run_flat] under the new weights, because the engine's caches treat
   trees as content-addressed artifacts.

   Invalidation: the subtree hanging under every tree arc whose weight
   increased is "dirty" — those are exactly the nodes whose old dist can
   be stale-optimistic. Dirty nodes are reset to infinity and re-seeded
   from their intact in-neighbours; decreased arcs (tree or non-tree)
   seed improvements directly. The main loop is then ordinary Dijkstra
   over the dirty frontier.

   Bit-identity of [parent] needs one more guard: a fresh run breaks
   equal-cost ties by heap order, which the repair does not replay. So
   whenever a relaxation produces a candidate exactly equal to the
   resident dist through a different parent, the repair declares the
   tie ambiguous and falls back to a full recompute — by construction
   the repaired result is only returned when the new optimum is unique
   along every touched arc. Ties strictly inside the untouched region
   were already resolved by the fresh run that produced the input tree
   and are inherited verbatim. *)

type repair_stats = { settled : int; full : bool }

let c_repairs = Rr_obs.Counter.make "dijkstra.repairs"

let c_repair_full = Rr_obs.Counter.make "dijkstra.repair_full_fallbacks"

let c_repair_settled = Rr_obs.Counter.make "dijkstra.repair_settled"

exception Fallback

let count_reachable dist =
  Array.fold_left (fun acc d -> if d < infinity then acc + 1 else acc) 0 dist

let repair ~n ~off ~tgt ~mate ~weight ~old_weight ~changed
    ?(frontier_limit = max_int) tree ~src =
  let tel = Rr_obs.enabled () in
  if tel then Rr_obs.Counter.incr c_repairs;
  let full () =
    if tel then Rr_obs.Counter.incr c_repair_full;
    let t = run_flat ~n ~off ~tgt ~weight ~src ~stop:(-1) in
    let settled = count_reachable t.dist in
    if tel then Rr_obs.Counter.add c_repair_settled settled;
    (t, { settled; full = true })
  in
  try
    (* Child lists from the parent array (reverse iteration keeps each
       list in increasing node order; the order is irrelevant to the
       result, dirty marking visits whole subtrees either way). *)
    let child_head = Array.make n (-1) and child_next = Array.make n (-1) in
    for v = n - 1 downto 0 do
      let p = tree.parent.(v) in
      if p >= 0 then begin
        child_next.(v) <- child_head.(p);
        child_head.(p) <- v
      end
    done;
    let dirty = Array.make n false in
    let dirty_count = ref 0 in
    let rec mark v =
      if not dirty.(v) then begin
        dirty.(v) <- true;
        incr dirty_count;
        if !dirty_count > frontier_limit then raise Fallback;
        let c = ref child_head.(v) in
        while !c >= 0 do
          mark !c;
          c := child_next.(!c)
        done
      end
    in
    Array.iter
      (fun (k, u) ->
        let v = tgt.(k) in
        if tree.parent.(v) = u && weight k > old_weight k then mark v)
      changed;
    let dist = Array.copy tree.dist and parent = Array.copy tree.parent in
    let settled = Array.make n false in
    let heap = Heap.create ~capacity:(max 16 n) () in
    for v = 0 to n - 1 do
      if dirty.(v) then begin
        dist.(v) <- infinity;
        parent.(v) <- -1
      end
    done;
    (* Seed every dirty node from its intact in-neighbours, weighing the
       in-arc through the CSR mate (weights are per-arc and asymmetric). *)
    for v = 0 to n - 1 do
      if dirty.(v) then
        for k = off.(v) to off.(v + 1) - 1 do
          let u = tgt.(k) in
          if (not dirty.(u)) && dist.(u) < infinity then begin
            let w = weight mate.(k) in
            if w < 0.0 then invalid_arg "Dijkstra: negative edge weight";
            let nd = dist.(u) +. w in
            if nd < dist.(v) then begin
              dist.(v) <- nd;
              parent.(v) <- u;
              Heap.push heap nd v
            end
            else if nd = dist.(v) && parent.(v) <> u then raise Fallback
          end
        done
    done;
    (* Decreased arcs between intact nodes seed improvements directly
       (covers decreased tree arcs too: there the candidate is strictly
       below the resident dist). *)
    Array.iter
      (fun (k, u) ->
        let v = tgt.(k) in
        if (not dirty.(v)) && (not dirty.(u)) && dist.(u) < infinity then begin
          let w = weight k in
          if w < 0.0 then invalid_arg "Dijkstra: negative edge weight";
          let nd = dist.(u) +. w in
          if nd < dist.(v) then begin
            dist.(v) <- nd;
            parent.(v) <- u;
            Heap.push heap nd v
          end
          else if nd = dist.(v) && parent.(v) <> u then raise Fallback
        end)
      changed;
    let settled_count = ref 0 in
    while not (Heap.is_empty heap) do
      let d = Heap.min_key heap in
      let u = Heap.min_elt heap in
      Heap.drop_min heap;
      if not settled.(u) then begin
        settled.(u) <- true;
        incr settled_count;
        for k = off.(u) to off.(u + 1) - 1 do
          let v = tgt.(k) in
          let w = weight k in
          if w < 0.0 then invalid_arg "Dijkstra: negative edge weight";
          let nd = d +. w in
          if nd < dist.(v) then begin
            (* A strict improvement into an already-settled node would
               mean the repair settled it too early — cannot happen in a
               consistent run, but fall back rather than trust it. *)
            if settled.(v) then raise Fallback;
            dist.(v) <- nd;
            parent.(v) <- u;
            Heap.push heap nd v
          end
          else if nd = dist.(v) && parent.(v) <> u then raise Fallback
        done
      end
    done;
    if tel then Rr_obs.Counter.add c_repair_settled !settled_count;
    ({ dist; parent }, { settled = !settled_count; full = false })
  with Fallback -> full ()

let path_of_tree tree ~src ~dst =
  if tree.dist.(dst) = infinity then None
  else begin
    let rec build acc v =
      if v = src then src :: acc
      else begin
        let p = tree.parent.(v) in
        assert (p >= 0);
        build (v :: acc) p
      end
    in
    Some (build [] dst)
  end

let single_pair_flat ~n ~off ~tgt ~weight ~src ~dst =
  if dst < 0 || dst >= n then invalid_arg "Dijkstra: destination out of range";
  if src = dst then Some (0.0, [ src ])
  else
    let tree = run_flat ~n ~off ~tgt ~weight ~src ~stop:dst in
    Option.map (fun path -> (tree.dist.(dst), path)) (path_of_tree tree ~src ~dst)

let find_arc ~off ~tgt a b =
  let hi = off.(a + 1) in
  let rec scan k =
    if k >= hi then None else if tgt.(k) = b then Some k else scan (k + 1)
  in
  scan off.(a)

(* Left-fold of arc weights along [path] — the exact float association
   the kernel accumulates, so a recomputed cost matches a search's
   label bitwise. *)
let path_cost ~off ~tgt ~weight path =
  let rec go acc = function
    | a :: (b :: _ as rest) -> (
      match find_arc ~off ~tgt a b with
      | Some k -> go (acc +. weight k) rest
      | None -> invalid_arg "Dijkstra.path_cost: path edge missing from CSR")
    | [ _ ] | [] -> acc
  in
  go 0.0 path
