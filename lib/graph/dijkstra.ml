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
   and are inherited verbatim.

   Cost: everything but the two result copies is proportional to the
   dirty subtree and its in-arcs, the changed arcs, and the nodes the
   heap loop re-settles with their out-arcs. The dirty and settled
   marks, the dirty list and the heap are domain-local scratch whose
   marks carry a generation stamp, so a repair on a warm domain neither
   clears nor allocates anything n-sized besides its result. *)

type repair_stats = { settled : int; full : bool }

let c_repairs = Rr_obs.Counter.make "dijkstra.repairs"

let c_repair_full = Rr_obs.Counter.make "dijkstra.repair_full_fallbacks"

let c_repair_frontier = Rr_obs.Counter.make "dijkstra.repair_fallback_frontier"

let c_repair_tie = Rr_obs.Counter.make "dijkstra.repair_fallback_tie"

let c_repair_order = Rr_obs.Counter.make "dijkstra.repair_fallback_order"

let c_repair_settled = Rr_obs.Counter.make "dijkstra.repair_settled"

(* Why a repair gave up: the dirty subtree outgrew [frontier_limit], an
   equal-cost candidate through a different parent, or a strict
   improvement into an already-settled node. *)
exception Fallback of Rr_obs.Counter.t

type scratch = {
  busy : bool Atomic.t;
  mutable gen : int;
  mutable dirty_mark : int array;  (* = gen: node is dirty this repair *)
  mutable settled_mark : int array;  (* = gen: node settled this repair *)
  mutable dirty : int array;  (* the dirty nodes, in marking order *)
  heap : int Heap.t;
}

let fresh_scratch () =
  {
    busy = Atomic.make false;
    gen = 0;
    dirty_mark = [||];
    settled_mark = [||];
    dirty = [||];
    heap = Heap.create ();
  }

let scratch_key : scratch Domain.DLS.key = Domain.DLS.new_key fresh_scratch

(* Systhreads of one domain share its scratch, so a repair claims it
   with a compare-and-set; a caller that finds it taken gets a fresh
   one for this call. A new generation invalidates every old mark. *)
let claim_scratch n =
  let s = Domain.DLS.get scratch_key in
  let s =
    if Atomic.compare_and_set s.busy false true then s
    else begin
      let s = fresh_scratch () in
      Atomic.set s.busy true;
      s
    end
  in
  if Array.length s.dirty_mark < n then begin
    s.dirty_mark <- Array.make n 0;
    s.settled_mark <- Array.make n 0;
    s.dirty <- Array.make n 0;
    Heap.ensure_capacity s.heap (max 16 n)
  end;
  s.gen <- s.gen + 1;
  Heap.clear s.heap;
  s

let release_scratch s = Atomic.set s.busy false

let count_reachable dist =
  Array.fold_left (fun acc d -> if d < infinity then acc + 1 else acc) 0 dist

let repair_with s ~off ~tgt ~mate ~weight ~old_weight ~changed ~frontier_limit
    tree =
  let gen = s.gen and dirty_mark = s.dirty_mark and dirty = s.dirty in
  let settled_mark = s.settled_mark and heap = s.heap in
  let is_dirty v = dirty_mark.(v) = gen in
  let dirty_len = ref 0 in
  let mark v =
    if not (is_dirty v) then begin
      dirty_mark.(v) <- gen;
      dirty.(!dirty_len) <- v;
      incr dirty_len;
      if !dirty_len > frontier_limit then raise (Fallback c_repair_frontier)
    end
  in
  Array.iter
    (fun (k, u) ->
      let v = tgt.(k) in
      if tree.parent.(v) = u && weight k > old_weight k then mark v)
    changed;
  (* The dirty list is its own queue: a node's children are the targets
     of its out-arcs that name it as their parent. *)
  let head = ref 0 in
  while !head < !dirty_len do
    let v = dirty.(!head) in
    incr head;
    for k = off.(v) to off.(v + 1) - 1 do
      let c = tgt.(k) in
      if tree.parent.(c) = v then mark c
    done
  done;
  let dist = Array.copy tree.dist and parent = Array.copy tree.parent in
  (* Seeding in increasing node order keeps the heap's push order, and
     so its order among equal keys, independent of the marking order. *)
  let order = Array.sub dirty 0 !dirty_len in
  Array.sort Int.compare order;
  Array.iter
    (fun v ->
      dist.(v) <- infinity;
      parent.(v) <- -1)
    order;
  (* Relax arc [k] = (u, v) into the seeds. *)
  let seed ~u ~v k =
    let w = weight k in
    if w < 0.0 then invalid_arg "Dijkstra: negative edge weight";
    let nd = dist.(u) +. w in
    if nd < dist.(v) then begin
      dist.(v) <- nd;
      parent.(v) <- u;
      Heap.push heap nd v
    end
    else if nd = dist.(v) && parent.(v) <> u then raise (Fallback c_repair_tie)
  in
  (* Seed every dirty node from its intact in-neighbours, weighing the
     in-arc through the CSR mate (weights are per-arc and asymmetric). *)
  Array.iter
    (fun v ->
      for k = off.(v) to off.(v + 1) - 1 do
        let u = tgt.(k) in
        if (not (is_dirty u)) && dist.(u) < infinity then
          seed ~u ~v mate.(k)
      done)
    order;
  (* Decreased arcs between intact nodes seed improvements directly
     (covers decreased tree arcs too: there the candidate is strictly
     below the resident dist). *)
  Array.iter
    (fun (k, u) ->
      let v = tgt.(k) in
      if (not (is_dirty v)) && (not (is_dirty u)) && dist.(u) < infinity then
        seed ~u ~v k)
    changed;
  let settled_count = ref 0 in
  while not (Heap.is_empty heap) do
    let d = Heap.min_key heap in
    let u = Heap.min_elt heap in
    Heap.drop_min heap;
    if settled_mark.(u) <> gen then begin
      settled_mark.(u) <- gen;
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
          if settled_mark.(v) = gen then raise (Fallback c_repair_order);
          dist.(v) <- nd;
          parent.(v) <- u;
          Heap.push heap nd v
        end
        else if nd = dist.(v) && parent.(v) <> u then
          raise (Fallback c_repair_tie)
      done
    end
  done;
  ({ dist; parent }, !settled_count)

let repair ~n ~off ~tgt ~mate ~weight ~old_weight ~changed
    ?(frontier_limit = max_int) tree ~src =
  Rr_obs.with_span "dijkstra.repair" @@ fun () ->
  let tel = Rr_obs.enabled () in
  if tel then Rr_obs.Counter.incr c_repairs;
  let s = claim_scratch n in
  match
    repair_with s ~off ~tgt ~mate ~weight ~old_weight ~changed ~frontier_limit
      tree
  with
  | t, settled ->
    release_scratch s;
    if tel then Rr_obs.Counter.add c_repair_settled settled;
    (t, { settled; full = false })
  | exception Fallback cause ->
    release_scratch s;
    if tel then begin
      Rr_obs.Counter.incr c_repair_full;
      Rr_obs.Counter.incr cause
    end;
    let t = run_flat ~n ~off ~tgt ~weight ~src ~stop:(-1) in
    let settled = count_reachable t.dist in
    if tel then Rr_obs.Counter.add c_repair_settled settled;
    (t, { settled; full = true })
  | exception e ->
    release_scratch s;
    raise e

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

(* The arc [(a, b)] by a scan of [a]'s row, -1 when absent. The int
   annotations matter: without them [<>] is the polymorphic compare, an
   external call per arc scanned. *)
let arc_index ~off ~(tgt : int array) a (b : int) =
  let hi = off.(a + 1) in
  let k = ref off.(a) in
  while !k < hi && tgt.(!k) <> b do
    incr k
  done;
  if !k < hi then !k else -1

let find_arc ~off ~tgt a b =
  match arc_index ~off ~tgt a b with -1 -> None | k -> Some k

(* Left-fold of arc weights along [path] — the exact float association
   the kernel accumulates, so a recomputed cost matches a search's
   label bitwise. The sum lives in a local float ref, which the
   compiler keeps unboxed; a recursive fold would box it on every
   hop. *)
let path_cost ~off ~tgt ~weight path =
  let acc = ref 0.0 and hops = ref path and more = ref true in
  while !more do
    match !hops with
    | a :: (b :: _ as rest) ->
      let k = arc_index ~off ~tgt a b in
      if k < 0 then
        invalid_arg "Dijkstra.path_cost: path edge missing from CSR";
      acc := !acc +. weight k;
      hops := rest
    | [ _ ] | [] -> more := false
  done;
  !acc
