open Rr_util

type pick = {
  u : int;
  v : int;
  total_after : float;
  fraction : float;
}

let c_scored = Rr_obs.Counter.make "augment.candidates_scored"

let c_rescore_full = Rr_obs.Counter.make "augment.rescore_full"

let c_rescore_incremental = Rr_obs.Counter.make "augment.rescore_incremental"

let c_delta_cells = Rr_obs.Counter.make "augment.delta_cells"

let c_pruned = Rr_obs.Counter.make "augment.pool_pruned"

let c_rounds = Rr_obs.Counter.make "augment.rounds"

let g_pool = Rr_obs.Gauge.make "augment.candidate_pool"

let node_ids n = Array.init n (fun i -> i)

(* All-pairs matrix of minimum path cost under a per-arc weight:
   [m.(i).(j)] is the best cost i -> j, infinity when disconnected. One
   single-source Dijkstra per row, swept by the domain pool. *)
let all_pairs_arcs env ~weight =
  let n = Env.node_count env in
  let off = Env.arc_off env and tgt = Env.arc_tgt env in
  Parallel.map_array
    (fun src ->
      (Rr_graph.Dijkstra.single_source_flat ~n ~off ~tgt ~weight ~src)
        .Rr_graph.Dijkstra.dist)
    (node_ids n)

let matrix_total m =
  let n = Array.length m in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let mi = m.(i) in
    for j = 0 to n - 1 do
      let v = Array.unsafe_get mi j in
      if i <> j && v < infinity then acc := !acc +. v
    done
  done;
  !acc

let risk_arc_weight env = Env.eq1_weight env ~kappa:(Env.mean_kappa env)

(* All-pairs rows from a caller-supplied tree provider (an engine cache)
   when given, else computed fresh. Cached [dist] arrays may be aliased
   as matrix rows: the greedy relaxation copies rows before mutating
   them, and everything else only reads. *)
let all_pairs_rows ?trees env ~weight =
  match trees with
  | None -> all_pairs_arcs env ~weight
  | Some f ->
    let n = Env.node_count env in
    Parallel.map_array (fun src -> (f src).Rr_graph.Dijkstra.dist) (node_ids n)

(* Pair-indexed mean-kappa weight, for arcs that are not in the graph
   yet (candidate links). *)
let risk_weight env =
  let kappa = Env.mean_kappa env in
  fun u v -> Env.edge_weight env ~kappa u v

let total_bit_risk ?risk_trees env =
  matrix_total
    (all_pairs_rows ?trees:risk_trees env ~weight:(risk_arc_weight env))

(* The single-edge insertion minimum of one cell: [x] is the current
   entry, [c1] and [c2] the costs through the new edge in its two
   directions. Each via-term is compared against the running minimum,
   so a branch is taken only when a via-term improves the cell (3.3% of
   Level3's cells), where [Float.min x (Float.min c1 c2)] compiles to a
   compare and a jump per min and [c1] against [c2] is a coin flip.

   The result has the bits of the [Float.min] form. [Float.min] differs
   from a compare only on NaN and on signed zeros, and neither occurs
   here. No operand is NaN: each is [infinity] or a sum of finite
   non-negative weights, and [infinity +. finite] is [infinity]. None is
   [-0.0]: distances start at [+0.0], weights are never negative, and
   [+0.0 +. -0.0 = +0.0]. So equal values have equal bits, and which
   operand wins a tie cannot show. *)
let[@inline] min_via (x : float) c1 c2 =
  let y = if c1 < x then c1 else x in
  if c2 < y then c2 else y

(* Total after adding (u, v), via the single-edge insertion identity —
   computed without materialising the relaxed matrix. Accumulation runs
   in row-major order so the result is independent of how candidates are
   scheduled across domains. *)
let insertion_total ?(all_finite = false) m ~u ~v ~wuv ~wvu =
  let n = Array.length m in
  let mu = m.(u) and mv = m.(v) in
  let total = ref 0.0 in
  (* Candidate scoring is the greedy loop's dominant kernel: O(n^2) per
     candidate per round. Rows all have length n, so the unchecked reads
     are in bounds. Infinity propagates through [+.] exactly like the
     explicit finiteness guards it replaces. *)
  if all_finite then
    (* Connected-graph fast path: no finiteness tests, and the diagonal
       needs no exclusion — [m.(i).(i) = 0] and weights are
       non-negative, so its term is exactly [0.0] and adding it leaves
       the (non-negative) total bit-identical to the guarded loop. *)
    for i = 0 to n - 1 do
      let mi = m.(i) in
      let a = mi.(u) +. wuv and b = mi.(v) +. wvu in
      for j = 0 to n - 1 do
        total :=
          !total
          +. min_via (Array.unsafe_get mi j)
               (a +. Array.unsafe_get mv j)
               (b +. Array.unsafe_get mu j)
      done
    done
  else
  for i = 0 to n - 1 do
    let mi = m.(i) in
    let diu = mi.(u) and div_ = mi.(v) in
    if diu < infinity || div_ < infinity then begin
      let a = diu +. wuv and b = div_ +. wvu in
      for j = 0 to n - 1 do
        if i <> j then begin
          let best_ij =
            min_via (Array.unsafe_get mi j)
              (a +. Array.unsafe_get mv j)
              (b +. Array.unsafe_get mu j)
          in
          if best_ij < infinity then total := !total +. best_ij
        end
      done
    end
    else
      for j = 0 to n - 1 do
        if i <> j then begin
          let c = Array.unsafe_get mi j in
          if c < infinity then total := !total +. c
        end
      done
  done;
  !total

(* Relax the whole matrix through one new undirected edge (u, v): the
   only new paths pass through the edge in one of its two directions.
   Returns the new matrix plus, per row, the sorted columns that
   improved — the change set drives incremental candidate rescoring.
   Rows are independent, so the sweep runs on the pool; untouched rows
   are shared (rows are never mutated in place afterwards). *)
let relax_through_tracked m ~u ~v ~wuv ~wvu =
  let n = Array.length m in
  let mu = m.(u) and mv = m.(v) in
  let relaxed =
    Parallel.map_array
      (fun i ->
        let mi = m.(i) in
        let diu = mi.(u) and div_ = mi.(v) in
        if diu = infinity && div_ = infinity then (mi, [||])
        else begin
          let a = diu +. wuv and b = div_ +. wvu in
          let out = ref mi in
          let changed = ref [] in
          for j = n - 1 downto 0 do
            let x = Array.unsafe_get mi j in
            let c =
              min_via x (a +. Array.unsafe_get mv j) (b +. Array.unsafe_get mu j)
            in
            (* Below [x], [c] is the smaller via-term. *)
            if c < x then begin
              if !out == mi then out := Array.copy mi;
              Array.unsafe_set !out j c;
              changed := j :: !changed
            end
          done;
          (!out, Array.of_list !changed)
        end)
      (node_ids n)
  in
  (Array.map fst relaxed, Array.map snd relaxed)

let candidates ?(max_candidates = 400) ?(reduction_threshold = 0.5) ?dist_trees
    env =
 Rr_obs.with_span "augment.candidates" @@ fun () ->
  let graph = Env.graph env in
  let n = Rr_graph.Graph.node_count graph in
  let dist_matrix =
    all_pairs_rows ?trees:dist_trees env
      ~weight:(Rr_graph.Dijkstra.Miles (Env.arc_miles env))
  in
  (* Rows are independent, so they run on the pool. Each row conses its
     pairs in increasing [v]; concatenating the rows in decreasing [u]
     rebuilds the list a sequential double loop would cons, so the
     stable sort breaks ties, and the cut keeps candidates, exactly as
     it always has. *)
  let rows =
    Parallel.map_array
      (fun u ->
        let row = ref [] in
        for v = u + 1 to n - 1 do
          if not (Rr_graph.Graph.has_edge graph u v) then begin
            let direct = Env.link_miles env u v in
            let current = dist_matrix.(u).(v) in
            (* The paper keeps links yielding > 50% bit-miles reduction. *)
            if current < infinity && direct < reduction_threshold *. current then
              row := (current -. direct, (u, v)) :: !row
          end
        done;
        !row)
      (node_ids n)
  in
  let scored = Array.fold_left (fun acc row -> row @ acc) [] rows in
  List.sort (fun (a, _) (b, _) -> Float.compare b a) scored
  |> Rr_util.Listx.take max_candidates
  |> List.map snd

let greedy ?(k = 1) ?max_candidates ?reduction_threshold ?dist_trees ?risk_trees
    env =
 Rr_obs.with_kernel "augment.greedy" @@ fun () ->
  let weight = risk_weight env in
  let graph = Rr_graph.Graph.copy (Env.graph env) in
  let m =
    ref (all_pairs_rows ?trees:risk_trees env ~weight:(risk_arc_weight env))
  in
  let n = Array.length !m in
  let original = matrix_total !m in
  let pool =
    Array.of_list (candidates ?max_candidates ?reduction_threshold ?dist_trees env)
  in
  Rr_obs.Gauge.set g_pool (Array.length pool);
  (* Relaxation only lowers finite entries, so connectivity observed on
     the initial matrix licenses the fast scoring path for every round. *)
  let all_finite =
    Array.for_all (Array.for_all (fun x -> x < infinity)) !m
  in
  let alive = Array.make (Array.length pool) true in
  let score = Array.make (Array.length pool) infinity in
  let rescore_all () =
    Parallel.parallel_for (Array.length pool) (fun c ->
        if alive.(c) then begin
          let u, v = pool.(c) in
          score.(c) <-
            insertion_total ~all_finite !m ~u ~v ~wuv:(weight u v)
              ~wvu:(weight v u);
          Rr_obs.Counter.incr c_scored;
          Rr_obs.Counter.incr c_rescore_full
        end)
  in
  (* After inserting an edge, candidates whose endpoint rows/columns were
     untouched see the same via-terms as before: their total moves only
     on the cells the relaxation actually improved, so an O(|changes|)
     delta replaces the O(n^2) rescore. Candidates touching a changed
     row/column are rescored in full. *)
  let rescore_incremental m_old changed =
    let total_changed = Array.fold_left (fun a c -> a + Array.length c) 0 changed in
    if total_changed = 0 then ()
    else if total_changed * 8 > n * n then rescore_all ()
    else begin
      let row_changed = Array.map (fun c -> Array.length c > 0) changed in
      let col_changed = Array.make n false in
      Array.iter (Array.iter (fun j -> col_changed.(j) <- true)) changed;
      Parallel.parallel_for (Array.length pool) (fun c ->
          if alive.(c) then begin
            let a, b = pool.(c) in
            if row_changed.(a) || row_changed.(b) || col_changed.(a) || col_changed.(b)
            then begin
              score.(c) <-
                insertion_total ~all_finite !m ~u:a ~v:b ~wuv:(weight a b)
                  ~wvu:(weight b a);
              Rr_obs.Counter.incr c_scored;
              Rr_obs.Counter.incr c_rescore_full
            end
            else begin
              let wab = weight a b and wba = weight b a in
              let ma = !m.(a) and mb = !m.(b) in
              (* Loops, not closures, so [delta] stays an unboxed local
                 instead of a captured ref boxing each partial sum. *)
              let delta = ref 0.0 in
              for i = 0 to n - 1 do
                let cols = changed.(i) in
                if Array.length cols > 0 then begin
                  let mi_new = !m.(i) and mi_old = m_old.(i) in
                  let dia = mi_new.(a) and dib = mi_new.(b) in
                  for t = 0 to Array.length cols - 1 do
                    let j = cols.(t) in
                    if i <> j then begin
                      let c1 = dia +. wab +. mb.(j)
                      and c2 = dib +. wba +. ma.(j) in
                      let t_old = min_via mi_old.(j) c1 c2 in
                      let t_new = min_via mi_new.(j) c1 c2 in
                      let c_old = if t_old < infinity then t_old else 0.0 in
                      let c_new = if t_new < infinity then t_new else 0.0 in
                      delta := !delta +. (c_new -. c_old)
                    end
                  done
                end
              done;
              score.(c) <- score.(c) +. !delta;
              Rr_obs.Counter.incr c_scored;
              Rr_obs.Counter.incr c_rescore_incremental;
              Rr_obs.Counter.add c_delta_cells total_changed
            end
          end)
    end
  in
  let picks = ref [] in
  (try
     rescore_all ();
     for round = 1 to k do
       (* Deterministic first-minimum over the pool order, matching the
          sequential scan this replaces. *)
       let best = ref (-1) in
       for c = 0 to Array.length pool - 1 do
         if alive.(c) && (!best < 0 || score.(c) < score.(!best)) then best := c
       done;
       if !best < 0 then raise Exit;
       Rr_obs.Counter.incr c_rounds;
       let u, v = pool.(!best) in
       let total_after = score.(!best) in
       Rr_graph.Graph.add_edge graph u v;
       alive.(!best) <- false;
       (* Prune candidates that are now actual edges — the chosen link
          plus any duplicate the pool may carry. *)
       Array.iteri
         (fun c (a, b) ->
           if alive.(c) && Rr_graph.Graph.has_edge graph a b then begin
             alive.(c) <- false;
             Rr_obs.Counter.incr c_pruned
           end)
         pool;
       picks :=
         { u; v; total_after; fraction = total_after /. original } :: !picks;
       if round < k then begin
         let m_old = !m in
         let relaxed, changed =
           relax_through_tracked m_old ~u ~v ~wuv:(weight u v) ~wvu:(weight v u)
         in
         m := relaxed;
         rescore_incremental m_old changed
       end
     done
   with Exit -> ());
  List.rev !picks
