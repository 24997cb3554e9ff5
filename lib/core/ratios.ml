open Rr_util

type result = {
  risk_reduction : float;
  distance_increase : float;
  pairs : int;
}

let default_cap = 20_000

let c_pairs = Rr_obs.Counter.make "ratios.pairs_routed"

let h_sweep = Rr_obs.Histogram.make "ratios.sweep_seconds"

(* The Eq. 5-6 terms of pair [i] sit at [4 i] .. [4 i + 3] of one float
   array: the RiskRoute path's bit-risk miles and bit-miles, then the
   shortest path's. A sweep keeps only these, not the routes: holding
   both routes, paths included, for every pair until the sums run
   promotes them all to the major heap (about 490k more words for a
   6,000-pair sweep of Level3). A pair with [src = dst] or a missing
   route keeps the array's zeros, which the sums skip as they skip a
   zero-length shortest path. *)
let rr_risk = 0

let rr_miles = 1

let sp_risk = 2

let sp_miles = 3

(* Whether pair [i] enters the sums. *)
let counted routed i =
  routed.((4 * i) + sp_risk) > 0.0 && routed.((4 * i) + sp_miles) > 0.0

(* Route every sampled pair with one geographic shortest-path tree per
   endpoint. The source's tree answers the shortest half of every pair
   sharing that source. RiskRoute still needs one search per pair,
   since [kappa] depends on both endpoints, but the destination's tree
   is that search's exact miles-to-go, so it runs as A* toward the
   destination. Per-pair results are computed independently on the
   domain pool, each written into its own four slots, and consumed in
   pair order, so downstream accumulation is bit-identical at any pool
   size. *)
let pair_routes ?trees env pairs =
 Rr_obs.with_span "ratios.pair_routes" @@ fun () ->
  let tel = Rr_obs.enabled () in
  let t0 = if tel then Rr_obs.Clock.monotonic () else 0.0 in
  (* slot.(v): index of v's tree in [endpoints], -1 when v is none *)
  let slot = Array.make (Env.node_count env) (-1) in
  let endpoints = ref [] and count = ref 0 in
  let add v =
    if slot.(v) < 0 then begin
      slot.(v) <- !count;
      incr count;
      endpoints := v :: !endpoints
    end
  in
  Array.iter
    (fun (src, dst) ->
      if src <> dst then begin
        add src;
        add dst
      end)
    pairs;
  let endpoints = Array.of_list (List.rev !endpoints) in
  let tree_for =
    match trees with
    | Some f -> f
    | None -> fun src -> Router.shortest_tree env ~src
  in
  let trees = Parallel.map_array tree_for endpoints in
  let routed = Array.make (4 * Array.length pairs) 0.0 in
  Parallel.parallel_for (Array.length pairs) (fun i ->
      let src, dst = pairs.(i) in
      if src <> dst then
        match
          ( Router.riskroute ~toward:trees.(slot.(dst)) env ~src ~dst,
            Router.shortest_of_tree env trees.(slot.(src)) ~src ~dst )
        with
        | Some rr, Some sp ->
          let at = 4 * i in
          routed.(at + rr_risk) <- rr.Router.bit_risk_miles;
          routed.(at + rr_miles) <- rr.Router.bit_miles;
          routed.(at + sp_risk) <- sp.Router.bit_risk_miles;
          routed.(at + sp_miles) <- sp.Router.bit_miles
        | _ -> ());
  if tel then begin
    Rr_obs.Counter.add c_pairs (Array.length pairs);
    Rr_obs.Histogram.observe h_sweep (Rr_obs.Clock.monotonic () -. t0)
  end;
  routed

(* Eqs. 5-6 average over 1/N^2 of ALL ordered pairs including the i = j
   diagonal, whose ratio terms are zero. [diagonal_share] is the fraction
   of the full pair universe that lies on that diagonal: the mean ratio
   over evaluated off-diagonal pairs is scaled by [1 - diagonal_share]
   before entering the paper's formulas. *)
let accumulate routed ~diagonal_share =
  let risk_sum = ref 0.0 and dist_sum = ref 0.0 and count = ref 0 in
  for i = 0 to (Array.length routed / 4) - 1 do
    if counted routed i then begin
      let at = 4 * i in
      risk_sum := !risk_sum +. (routed.(at + rr_risk) /. routed.(at + sp_risk));
      dist_sum := !dist_sum +. (routed.(at + rr_miles) /. routed.(at + sp_miles));
      incr count
    end
  done;
  if !count = 0 then { risk_reduction = 0.0; distance_increase = 0.0; pairs = 0 }
  else begin
    let n = float_of_int !count in
    let off_diagonal = 1.0 -. diagonal_share in
    {
      risk_reduction = 1.0 -. (!risk_sum /. n *. off_diagonal);
      distance_increase = (!dist_sum /. n *. off_diagonal) -. 1.0;
      pairs = !count;
    }
  end

let intradomain ?(pair_cap = default_cap) ?(seed = 0x4A71_05L) ?trees env =
 Rr_obs.with_kernel "ratios.intradomain" @@ fun () ->
  let n = Env.node_count env in
  let rng = Prng.create seed in
  let pairs = Sampling.pair_indices rng ~n ~cap:pair_cap in
  let diagonal_share = if n = 0 then 0.0 else 1.0 /. float_of_int n in
  accumulate (pair_routes ?trees env pairs) ~diagonal_share

let weighted ?(pair_cap = default_cap) ?(seed = 0x4A71_05L) ?trees ~weight env =
  let n = Env.node_count env in
  let rng = Prng.create seed in
  let pairs = Sampling.pair_indices rng ~n ~cap:pair_cap in
  let routed = pair_routes ?trees env pairs in
  let risk_sum = ref 0.0 and dist_sum = ref 0.0 in
  let weight_sum = ref 0.0 and count = ref 0 in
  Array.iteri
    (fun i (src, dst) ->
      let w = weight src dst in
      if src <> dst && w > 0.0 && counted routed i then begin
        let at = 4 * i in
        risk_sum :=
          !risk_sum +. (w *. routed.(at + rr_risk) /. routed.(at + sp_risk));
        dist_sum :=
          !dist_sum +. (w *. routed.(at + rr_miles) /. routed.(at + sp_miles));
        weight_sum := !weight_sum +. w;
        incr count
      end)
    pairs;
  if !weight_sum <= 0.0 then
    { risk_reduction = 0.0; distance_increase = 0.0; pairs = 0 }
  else
    {
      risk_reduction = 1.0 -. (!risk_sum /. !weight_sum);
      distance_increase = (!dist_sum /. !weight_sum) -. 1.0;
      pairs = !count;
    }

let between ?(pair_cap = default_cap) ?(seed = 0x4A71_05L) ?trees env ~sources
    ~dests =
  let ns = Array.length sources and nd = Array.length dests in
  if ns = 0 || nd = 0 then
    { risk_reduction = 0.0; distance_increase = 0.0; pairs = 0 }
  else begin
    let total = ns * nd in
    let pairs =
      Sampling.pairs_between (Prng.create seed) ~sources ~dests ~cap:pair_cap
    in
    (* Diagonal share of the S x D pair universe: |S inter D| / (|S| |D|). *)
    let dest_set = Hashtbl.create nd in
    Array.iter (fun d -> Hashtbl.replace dest_set d ()) dests;
    let overlap =
      Array.fold_left
        (fun acc s -> if Hashtbl.mem dest_set s then acc + 1 else acc)
        0 sources
    in
    let diagonal_share = float_of_int overlap /. float_of_int total in
    accumulate (pair_routes ?trees env pairs) ~diagonal_share
  end
