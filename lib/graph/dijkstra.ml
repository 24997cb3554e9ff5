type tree = { dist : float array; parent : int array }

(* Every search loop of the library lives in this file, beside the
   heap they push to: the dev profile compiles each module [-opaque],
   so a float passed to or returned from another module's function is
   boxed, one minor allocation per call. Here the weight, the potential
   and the heap push are [@inline] and the heap minimum is read in
   place, so a relaxation allocates nothing. *)

(* --- Binary min-heap ------------------------------------------------ *)

module Heap = struct
  type t = {
    mutable keys : float array;
    mutable vals : int array;
    mutable size : int;
  }

  let create ?(capacity = 64) () =
    let capacity = max 1 capacity in
    { keys = Array.make capacity 0.0; vals = Array.make capacity 0; size = 0 }

  let length h = h.size

  let is_empty h = h.size = 0

  let ensure_capacity h cap =
    if cap > Array.length h.keys then begin
      let keys = Array.make cap 0.0 and vals = Array.make cap 0 in
      Array.blit h.keys 0 keys 0 h.size;
      Array.blit h.vals 0 vals 0 h.size;
      h.keys <- keys;
      h.vals <- vals
    end

  (* Sift indices stay within [0, size), and [size <= capacity] is the
     structure's core invariant, so the unchecked accesses below are in
     bounds. Both sifts move a hole instead of swapping, and make the
     comparisons a swapping sift makes (strict [<], the left child
     before the right), so entries end where a swapping sift puts
     them. *)

  (* Move the entry at [i] up past every ancestor with a larger key. *)
  let sift_up h i =
    let keys = h.keys and vals = h.vals in
    let x = Array.unsafe_get keys i and v = Array.unsafe_get vals i in
    let i = ref i and moving = ref true in
    while !moving && !i > 0 do
      let p = (!i - 1) / 2 in
      let kp = Array.unsafe_get keys p in
      if x < kp then begin
        Array.unsafe_set keys !i kp;
        Array.unsafe_set vals !i (Array.unsafe_get vals p);
        i := p
      end
      else moving := false
    done;
    Array.unsafe_set keys !i x;
    Array.unsafe_set vals !i v

  (* Inlined at every loop's push: the key goes straight into [keys],
     and only ints reach the out-of-line [ensure_capacity] and
     [sift_up]. *)
  let[@inline] push h key v =
    let i = h.size in
    if i = Array.length h.keys then ensure_capacity h (2 * i);
    Array.unsafe_set h.keys i key;
    Array.unsafe_set h.vals i v;
    h.size <- i + 1;
    sift_up h i

  (* The last entry fills the root's hole and moves down past every
     child with a smaller key, toward the smaller child. *)
  let drop_min h =
    if h.size = 0 then invalid_arg "Heap.drop_min: empty heap";
    let size = h.size - 1 in
    h.size <- size;
    if size > 0 then begin
      let keys = h.keys and vals = h.vals in
      let x = Array.unsafe_get keys size and v = Array.unsafe_get vals size in
      let i = ref 0 and moving = ref true in
      while !moving do
        let l = (2 * !i) + 1 in
        if l >= size then moving := false
        else begin
          let c = ref !i and kc = ref x in
          let kl = Array.unsafe_get keys l in
          if kl < x then begin
            c := l;
            kc := kl
          end;
          let r = l + 1 in
          if r < size && Array.unsafe_get keys r < !kc then begin
            c := r;
            kc := Array.unsafe_get keys r
          end;
          if !c = !i then moving := false
          else begin
            Array.unsafe_set keys !i !kc;
            Array.unsafe_set vals !i (Array.unsafe_get vals !c);
            i := !c
          end
        end
      done;
      Array.unsafe_set keys !i x;
      Array.unsafe_set vals !i v
    end

  let pop_min h =
    if h.size = 0 then None
    else begin
      let key = h.keys.(0) and v = h.vals.(0) in
      drop_min h;
      Some (key, v)
    end

  let clear h = h.size <- 0
end

(* --- Arc weights ---------------------------------------------------- *)

type weight =
  | Miles of float array
  | Eq1 of { miles : float array; risk : float array; kappa : float }
  | Fn of (int -> float)

(* The loops read weight arrays unchecked, so their lengths are checked
   once per run. *)
let check_weight ~arcs = function
  | Miles miles ->
    if Array.length miles < arcs then
      invalid_arg "Dijkstra: weight array shorter than the arcs"
  | Eq1 { miles; risk; _ } ->
    if Array.length miles < arcs || Array.length risk < arcs then
      invalid_arg "Dijkstra: weight array shorter than the arcs"
  | Fn _ -> ()

(* One match per relaxation. [Eq1] is the expression every Eq. 1
   closure computed, so its bits are theirs; [Miles] is separate
   because [miles +. 0.0 *. risk] is [miles] only for finite risk. *)
let[@inline] weight_at w k =
  match w with
  | Miles miles -> Array.unsafe_get miles k
  | Eq1 { miles; risk; kappa } ->
    Array.unsafe_get miles k +. (kappa *. Array.unsafe_get risk k)
  | Fn f -> f k

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

(* Domain-local scratch of the tree kernel and of repairs: settled
   marks (and a repair's dirty marks) that carry a generation stamp, the
   dirty list and the heap. A run or repair on a warm domain therefore
   neither clears nor allocates anything n-sized besides its result. *)
type scratch = {
  busy : bool Atomic.t;
  mutable gen : int;
  mutable dirty_mark : int array;  (* = gen: node is dirty this repair *)
  mutable settled_mark : int array;  (* = gen: node settled this run *)
  mutable dirty : int array;  (* the dirty nodes, in marking order *)
  heap : Heap.t;
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

(* Systhreads of one domain share its scratch, so a run or repair
   claims it with a compare-and-set; a caller that finds it taken (a
   weight closure that itself builds a tree, say) gets a fresh one for
   this call. A new generation invalidates every old mark. *)
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

(* The kernel over a CSR adjacency ([Graph.to_csr] layout): the edge
   relaxation loop walks an int array by index and weighs each arc in
   place — in the RiskRoute hot path two float-array reads, a multiply
   and an add, with no hashing, no list traversal and no great-circle
   trigonometry. An [infinity] weight never passes the strict
   [nd < dist] test, so it removes the arc. Stops early once node
   [stop] (-1 for none) is settled. *)
let tree_loop s ~off ~tgt ~weight ~src ~stop ~dist ~parent =
  let tel = Rr_obs.enabled () in
  let gen = s.gen and settled = s.settled_mark and heap = s.heap in
  dist.(src) <- 0.0;
  Heap.push heap 0.0 src;
  (* [Gc.minor_words] is domain-local and allocation-free, so a counted
     run can afford an allocation delta over its loop: a loop that
     starts boxing floats again shows up here before it shows up as
     wall-clock. *)
  let gc0 = if tel then Gc.minor_words () else 0.0 in
  let relaxations = ref 0 and pushes = ref 1 and pops = ref 0 in
  let finished = ref false in
  while (not !finished) && heap.Heap.size > 0 do
    let d = Array.unsafe_get heap.Heap.keys 0 in
    let u = Array.unsafe_get heap.Heap.vals 0 in
    Heap.drop_min heap;
    incr pops;
    if Array.unsafe_get settled u <> gen then begin
      Array.unsafe_set settled u gen;
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
          if Array.unsafe_get settled v <> gen then begin
            let w = weight_at weight k in
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
    Rr_obs.Counter.add c_gc_minor_words (int_of_float (Gc.minor_words () -. gc0));
    Rr_obs.Counter.incr c_runs;
    Rr_obs.Counter.add c_relaxations !relaxations;
    Rr_obs.Counter.add c_heap_pushes !pushes;
    Rr_obs.Counter.add c_heap_pops !pops;
    if !finished then Rr_obs.Counter.incr c_early_stops
  end

let run_flat ~n ~off ~tgt ~weight ~src ~stop =
  if src < 0 || src >= n then invalid_arg "Dijkstra: source out of range";
  check_weight ~arcs:(Array.length tgt) weight;
  let dist = Array.make n infinity and parent = Array.make n (-1) in
  let s = claim_scratch n in
  match tree_loop s ~off ~tgt ~weight ~src ~stop ~dist ~parent with
  | () ->
    release_scratch s;
    { dist; parent }
  | exception e ->
    release_scratch s;
    raise e

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
   marks, the dirty list and the heap are the domain-local scratch
   above. *)

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
      if tree.parent.(v) = u && weight_at weight k > weight_at old_weight k
      then mark v)
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
    let w = weight_at weight k in
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
  while heap.Heap.size > 0 do
    let d = Array.unsafe_get heap.Heap.keys 0 in
    let u = Array.unsafe_get heap.Heap.vals 0 in
    Heap.drop_min heap;
    if settled_mark.(u) <> gen then begin
      settled_mark.(u) <- gen;
      incr settled_count;
      for k = off.(u) to off.(u + 1) - 1 do
        let v = tgt.(k) in
        let w = weight_at weight k in
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
  let arcs = Array.length tgt in
  check_weight ~arcs weight;
  check_weight ~arcs old_weight;
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

(* --- Point-to-point search under a potential ------------------------ *)

type potential = Zero | Toward of float array | Landmarks of float array array

(* max_L |d_L(v) - d_L(dst)| over the landmark trees. Terms involving
   an unreachable endpoint are skipped (the difference is infinite or
   NaN and bounds nothing). *)
let[@inline] landmark_bound trees ~dst v =
  let p = ref 0.0 in
  for i = 0 to Array.length trees - 1 do
    let t = Array.unsafe_get trees i in
    let a = Array.unsafe_get t v -. Array.unsafe_get t dst in
    if Float.is_finite a then begin
      let a = Float.abs a in
      if a > !p then p := a
    end
  done;
  !p

let potential_at potential ~dst v =
  match potential with
  | Zero -> 0.0
  | Toward a -> a.(v)
  | Landmarks trees ->
    for i = 0 to Array.length trees - 1 do
      let t = trees.(i) in
      if v < 0 || dst < 0 || v >= Array.length t || dst >= Array.length t then
        invalid_arg "Dijkstra.potential_at: node out of range"
    done;
    landmark_bound trees ~dst v

(* A query's scratch. Between searches [dist], [parent] and [settled]
   are pristine (infinity / -1 / false): a search lists each node it
   labels once in [touched] and undoes exactly those entries. The
   landmark bound of a node is memoised in [pi], valid where [pi_stamp]
   holds this search's [stamp]. *)
type workspace = {
  mutable w_dist : float array;
  mutable w_parent : int array;
  mutable w_settled : bool array;
  w_heap : Heap.t;
  mutable touched : int array;
  mutable touched_len : int;
  mutable pi : float array;
  mutable pi_stamp : int array;
  mutable stamp : int;
}

let workspace () =
  {
    w_dist = [||];
    w_parent = [||];
    w_settled = [||];
    w_heap = Heap.create ();
    touched = [||];
    touched_len = 0;
    pi = [||];
    pi_stamp = [||];
    stamp = 0;
  }

let fit_workspace ws n =
  if Array.length ws.w_dist < n then begin
    ws.w_dist <- Array.make n infinity;
    ws.w_parent <- Array.make n (-1);
    ws.w_settled <- Array.make n false;
    ws.touched <- Array.make n 0;
    ws.pi <- Array.make n 0.0;
    ws.pi_stamp <- Array.make n 0;
    Heap.ensure_capacity ws.w_heap (max 16 n)
  end;
  ws.stamp <- ws.stamp + 1

let reset_workspace ws =
  for i = 0 to ws.touched_len - 1 do
    let v = ws.touched.(i) in
    ws.w_dist.(v) <- infinity;
    ws.w_parent.(v) <- -1;
    ws.w_settled.(v) <- false
  done;
  ws.touched_len <- 0;
  Heap.clear ws.w_heap

(* [v]'s potential under this search's memo (landmarks only: the other
   two cost one read or none). *)
let[@inline] potential_memo ws potential ~dst v =
  match potential with
  | Zero -> 0.0
  | Toward a -> Array.unsafe_get a v
  | Landmarks trees ->
    if Array.unsafe_get ws.pi_stamp v = ws.stamp then Array.unsafe_get ws.pi v
    else begin
      let p = landmark_bound trees ~dst v in
      Array.unsafe_set ws.pi v p;
      Array.unsafe_set ws.pi_stamp v ws.stamp;
      p
    end

let[@inline] label ws v nd u =
  if Array.unsafe_get ws.w_dist v = infinity then begin
    Array.unsafe_set ws.touched ws.touched_len v;
    ws.touched_len <- ws.touched_len + 1
  end;
  Array.unsafe_set ws.w_dist v nd;
  Array.unsafe_set ws.w_parent v u

(* One loop for every potential. Heap keys are labels plus the
   potential, except under [Zero], whose keys are the labels
   themselves; either way a node's first pop relaxes from its current
   label, so the labels are the same left-folds of arc weights under
   every potential and the equal-cost tie-breaks follow the plain
   kernel's settle order. [src] and [dst] are in range and distinct,
   the workspace is fitted and pristine. Returns the settled count. *)
let query_loop ws ~off ~tgt ~weight ~potential ~src ~dst =
  let dist = ws.w_dist and settled = ws.w_settled and heap = ws.w_heap in
  label ws src 0.0 (-1);
  Heap.push heap (potential_memo ws potential ~dst src) src;
  let settles = ref 0 in
  let finished = ref false in
  while (not !finished) && heap.Heap.size > 0 do
    let u = Array.unsafe_get heap.Heap.vals 0 in
    Heap.drop_min heap;
    if not (Array.unsafe_get settled u) then begin
      Array.unsafe_set settled u true;
      incr settles;
      if u = dst then finished := true
      else begin
        let d = Array.unsafe_get dist u in
        for k = Array.unsafe_get off u to Array.unsafe_get off (u + 1) - 1 do
          let v = Array.unsafe_get tgt k in
          if not (Array.unsafe_get settled v) then begin
            let w = weight_at weight k in
            if w < 0.0 then invalid_arg "Dijkstra: negative edge weight";
            let nd = d +. w in
            if nd < Array.unsafe_get dist v then begin
              label ws v nd u;
              Heap.push heap
                (match potential with
                | Zero -> nd
                | Toward _ | Landmarks _ ->
                  nd +. potential_memo ws potential ~dst v)
                v
            end
          end
        done
      end
    end
  done;
  !settles

let c_query_gc_minor_words = Rr_obs.Counter.make "query.gc_minor_words"

let check_potential ~n = function
  | Zero -> ()
  | Toward a ->
    if Array.length a < n then
      invalid_arg "Dijkstra.search: potential shorter than the nodes"
  | Landmarks trees ->
    for i = 0 to Array.length trees - 1 do
      if Array.length trees.(i) < n then
        invalid_arg "Dijkstra.search: potential shorter than the nodes"
    done

let build_path parent ~src ~dst =
  let rec build acc v = if v = src then src :: acc else build (v :: acc) parent.(v) in
  build [] dst

let search ws ~n ~off ~tgt ~weight ~potential ~src ~dst =
  if src < 0 || src >= n then invalid_arg "Dijkstra: source out of range";
  if dst < 0 || dst >= n then invalid_arg "Dijkstra: destination out of range";
  if src = dst then (Some (0.0, [ src ]), 0)
  else begin
    check_weight ~arcs:(Array.length tgt) weight;
    check_potential ~n potential;
    fit_workspace ws n;
    let tel = Rr_obs.enabled () in
    let gc0 = if tel then Gc.minor_words () else 0.0 in
    match query_loop ws ~off ~tgt ~weight ~potential ~src ~dst with
    | settles ->
      if tel then
        Rr_obs.Counter.add c_query_gc_minor_words
          (int_of_float (Gc.minor_words () -. gc0));
      let result =
        if ws.w_dist.(dst) = infinity then None
        else Some (ws.w_dist.(dst), build_path ws.w_parent ~src ~dst)
      in
      reset_workspace ws;
      (result, settles)
    | exception e ->
      reset_workspace ws;
      raise e
  end

(* --- Paths and references ------------------------------------------- *)

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
    let tree = run_flat ~n ~off ~tgt ~weight:(Fn weight) ~src ~stop:dst in
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
  check_weight ~arcs:(Array.length tgt) weight;
  let acc = ref 0.0 and hops = ref path and more = ref true in
  while !more do
    match !hops with
    | a :: (b :: _ as rest) ->
      let k = arc_index ~off ~tgt a b in
      if k < 0 then
        invalid_arg "Dijkstra.path_cost: path edge missing from CSR";
      acc := !acc +. weight_at weight k;
      hops := rest
    | [ _ ] | [] -> more := false
  done;
  !acc
