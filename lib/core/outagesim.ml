open Rr_util

type scenario = {
  center : Rr_geo.Coord.t;
  radius_miles : float;
  failed_pops : int list;
}

type result = {
  scenarios : int;
  pairs : int;
  shortest_survival : float;
  riskroute_survival : float;
  reactive_survival : float;
  endpoint_loss : float;
}

let c_distances = Rr_obs.Counter.make "outagesim.distances_evaluated"

let sample_scenarios ?rng ?(radius_miles = 80.0) ?(probabilistic = false) ~kind
    ~count env =
  let rng = match rng with Some r -> r | None -> Prng.create 0x007A6EL in
  if count <= 0 then invalid_arg "Outagesim.sample_scenarios: count <= 0";
  if not (radius_miles > 0.0 && Float.is_finite radius_miles) then
    invalid_arg "Outagesim: radius_miles must be a positive finite number";
  let model = Rr_disaster.Model.for_kind kind in
  let sample = Rr_disaster.Model.sampler model ~seed:(Prng.int64 rng) in
  let coords = Env.coords env in
  let pops = Listx.range 0 (Array.length coords) in
  (* A PoP fails only within [reach] of the centre, and only there does
     the probabilistic model draw from [rng]. A PoP outside the strike's
     window of [reach] is farther than that, so it is skipped without a
     distance and the failed sets and draws are those of a distance per
     PoP. *)
  let reach = if probabilistic then 3.0 *. radius_miles else radius_miles in
  let evaluated = ref 0 in
  let fails center v =
    incr evaluated;
    let d = Rr_geo.Distance.miles center coords.(v) in
    if probabilistic then begin
      let z = d /. radius_miles in
      d <= reach && Prng.float rng 1.0 < exp (-.(z *. z))
    end
    else d <= radius_miles
  in
  let scenarios =
    List.init count (fun _ ->
        let center = sample rng in
        let w = Rr_geo.Distance.disk_window ~center ~radius_miles:reach in
        let failed_pops =
          List.filter
            (fun v ->
              Rr_geo.Distance.in_disk_window w coords.(v) && fails center v)
            pops
        in
        { center; radius_miles; failed_pops })
  in
  Rr_obs.Counter.add c_distances !evaluated;
  scenarios

let c_scenarios = Rr_obs.Counter.make "outagesim.scenarios"

let c_labelings = Rr_obs.Counter.make "outagesim.labelings"

let strike_labels env ~failed =
  Rr_obs.Counter.incr c_labelings;
  Rr_graph.Component.labels ~off:(Env.arc_off env) ~tgt:(Env.arc_tgt env)
    ~removed:failed

type static_route = int * int * Router.route option * Router.route option

type route_index = { starts : int array; ids : int array }

(* Route [2 i] is pair [i]'s shortest route, [2 i + 1] its RiskRoute
   route; [ids] lists, PoP by PoP, the routes through it. *)
let route_index n (static : static_route array) =
  let each f =
    Array.iteri
      (fun i (_, _, shortest, riskroute) ->
        let along id = function
          | Some (r : Router.route) -> List.iter (f id) r.Router.path
          | None -> ()
        in
        along (2 * i) shortest;
        along ((2 * i) + 1) riskroute)
      static
  in
  let starts = Array.make (n + 1) 0 in
  each (fun _ v -> starts.(v + 1) <- starts.(v + 1) + 1);
  for v = 1 to n do
    starts.(v) <- starts.(v) + starts.(v - 1)
  done;
  let ids = Array.make starts.(n) 0 and next = Array.sub starts 0 n in
  each (fun id v ->
      ids.(next.(v)) <- id;
      next.(v) <- next.(v) + 1);
  { starts; ids }

let routes_down index ~routes failed_pops =
  let down = Bytes.make routes '\000' in
  List.iter
    (fun v ->
      for k = index.starts.(v) to index.starts.(v + 1) - 1 do
        Bytes.set down index.ids.(k) '\001'
      done)
    failed_pops;
  down

let run ?rng ?(scenario_count = 200) ?(pair_cap = 200) ?(radius_miles = 80.0)
    ?(kind = Rr_disaster.Event.Fema_hurricane) env =
 Rr_obs.with_kernel "outagesim.run" @@ fun () ->
  Rr_obs.Counter.add c_scenarios scenario_count;
  let rng = match rng with Some r -> r | None -> Prng.create 0x0D15A57EL in
  let n = Env.node_count env in
  let pairs = Sampling.pair_indices (Prng.split rng) ~n ~cap:pair_cap in
  (* Static paths installed before any disaster — independent per pair,
     routed on the domain pool. *)
  let static =
    Parallel.map_array
      (fun (src, dst) ->
        let shortest = Router.shortest env ~src ~dst in
        let riskroute = Router.riskroute env ~src ~dst in
        (src, dst, shortest, riskroute))
      pairs
  in
  let index = route_index n static in
  let scenarios =
    Array.of_list
      (sample_scenarios ~rng:(Prng.split rng) ~radius_miles ~kind
         ~count:scenario_count env)
  in
  (* A strike that fails no PoP leaves every pair live and reachable,
     so it contributes the share of pairs with a static route and
     nothing else; it is computed once. *)
  let total = Array.length static in
  let quiet =
    if total = 0 then (0.0, 0.0, 0.0, 0.0)
    else begin
      let routed pick =
        Array.fold_left
          (fun acc r -> if Option.is_some (pick r) then acc + 1 else acc)
          0 static
      in
      let live = float_of_int total in
      ( float_of_int (routed (fun (_, _, s, _) -> s)) /. live,
        float_of_int (routed (fun (_, _, _, r) -> r)) /. live,
        1.0,
        0.0 )
    end
  in
  (* Scenarios are evaluated independently (each builds its own failed
     set and reroutes against the shared immutable environment); their
     per-scenario survival fractions are summed in scenario order, so
     the result is bit-identical at any pool size. *)
  let contributions =
    Parallel.map_array
      (fun scenario ->
        if scenario.failed_pops = [] then quiet
        else begin
          let failed = Array.make n false in
          List.iter (fun v -> failed.(v) <- true) scenario.failed_pops;
          (* One labelling answers the reactive posture of every pair. *)
          let label = strike_labels env ~failed in
          let down =
            routes_down index ~routes:(2 * Array.length static)
              scenario.failed_pops
          in
          let live_pairs = ref 0
          and s_ok = ref 0
          and r_ok = ref 0
          and re_ok = ref 0
          and endpoint_dead = ref 0 in
          Array.iteri
            (fun i (src, dst, shortest, riskroute) ->
              if failed.(src) || failed.(dst) then
                incr endpoint_dead
              else begin
                incr live_pairs;
                if Option.is_some shortest && Bytes.get down (2 * i) = '\000'
                then incr s_ok;
                if Option.is_some riskroute && Bytes.get down ((2 * i) + 1) = '\000'
                then incr r_ok;
                if label.(src) = label.(dst) then incr re_ok
              end)
            static;
          if total = 0 then (0.0, 0.0, 0.0, 0.0)
          else begin
            let endpoint = float_of_int !endpoint_dead /. float_of_int total in
            if !live_pairs = 0 then (0.0, 0.0, 0.0, endpoint)
            else begin
              let live = float_of_int !live_pairs in
              ( float_of_int !s_ok /. live,
                float_of_int !r_ok /. live,
                float_of_int !re_ok /. live,
                endpoint )
            end
          end
        end)
      scenarios
  in
  let sum_shortest = ref 0.0
  and sum_riskroute = ref 0.0
  and sum_reactive = ref 0.0
  and sum_endpoint = ref 0.0 in
  Array.iter
    (fun (s, r, re, endpoint) ->
      sum_shortest := !sum_shortest +. s;
      sum_riskroute := !sum_riskroute +. r;
      sum_reactive := !sum_reactive +. re;
      sum_endpoint := !sum_endpoint +. endpoint)
    contributions;
  let count = float_of_int (Array.length scenarios) in
  {
    scenarios = Array.length scenarios;
    pairs = Array.length pairs;
    shortest_survival = !sum_shortest /. count;
    riskroute_survival = !sum_riskroute /. count;
    reactive_survival = !sum_reactive /. count;
    endpoint_loss = !sum_endpoint /. count;
  }
