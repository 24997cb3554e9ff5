open Rr_util

type result = {
  pairs : int;
  events_per_year : float;
  mttr_hours : float;
  shortest : float;
  riskroute : float;
  reactive : float;
}

let nines a =
  if a >= 1.0 then infinity
  else if a <= 0.0 then 0.0
  else -.Float.log10 (1.0 -. a)

let downtime_minutes_per_year a = (1.0 -. a) *. 365.25 *. 24.0 *. 60.0

let catalogue_years = 41.0 (* 1970-2010 inclusive *)

let hours_per_year = 365.25 *. 24.0

let run ?rng ?(samples = 400) ?(pair_cap = 150) ?(mttr_hours = 12.0)
    ?(radius_miles = 80.0) ?(kind = Rr_disaster.Event.Fema_hurricane) env =
  if not (mttr_hours > 0.0 && Float.is_finite mttr_hours) then
    invalid_arg "Availability.run: MTTR must be a positive finite number";
  let rng = match rng with Some r -> r | None -> Prng.create 0xA7A1_AB1EL in
  let n = Env.node_count env in
  let pairs = Sampling.pair_indices (Prng.split rng) ~n ~cap:pair_cap in
  (* Static paths installed before any disaster, routed on the pool. *)
  let static =
    Parallel.map_array
      (fun (src, dst) ->
        (src, dst, Router.shortest env ~src ~dst, Router.riskroute env ~src ~dst))
      pairs
  in
  let index = Outagesim.route_index n static in
  let scenarios =
    Array.of_list
      (Outagesim.sample_scenarios ~rng:(Prng.split rng) ~radius_miles ~kind
         ~count:samples env)
  in
  (* Strikes are evaluated independently on the pool, each returning
     which postures it takes down per pair (bit 0 shortest, bit 1
     RiskRoute, bit 2 reactive; empty for a strike that fails no PoP).
     The integer tallies are summed in strike order. *)
  let downs =
    Parallel.map_array
      (fun (s : Outagesim.scenario) ->
        if s.Outagesim.failed_pops = [] then [||]
        else begin
          let failed = Array.make n false in
          List.iter (fun v -> failed.(v) <- true) s.Outagesim.failed_pops;
          let label = Outagesim.strike_labels env ~failed in
          let down =
            Outagesim.routes_down index ~routes:(2 * Array.length static)
              s.Outagesim.failed_pops
          in
          Array.mapi
            (fun i (src, dst, shortest, riskroute) ->
              let endpoint_dead = failed.(src) || failed.(dst) in
              let static_down route id =
                endpoint_dead || Option.is_none route
                || Bytes.get down id <> '\000'
              in
              let bit b flag = if flag then b else 0 in
              bit 1 (static_down shortest (2 * i))
              lor bit 2 (static_down riskroute ((2 * i) + 1))
              lor bit 4 (endpoint_dead || label.(src) <> label.(dst)))
            static
        end)
      scenarios
  in
  (* Per pair, count strikes that take each posture down. *)
  let np = Array.length static in
  let down_shortest = Array.make np 0
  and down_riskroute = Array.make np 0
  and down_reactive = Array.make np 0 in
  Array.iter
    (Array.iteri (fun i d ->
         down_shortest.(i) <- down_shortest.(i) + (d land 1);
         down_riskroute.(i) <- down_riskroute.(i) + ((d lsr 1) land 1);
         down_reactive.(i) <- down_reactive.(i) + ((d lsr 2) land 1)))
    downs;
  let events_per_year =
    float_of_int (Rr_disaster.Event.paper_count kind) /. catalogue_years
  in
  let availability down =
    (* Expected downtime per pair-year: strike rate x P(down | strike) x MTTR. *)
    let mean_p =
      Arrayx.fmean (Array.map (fun d -> float_of_int d /. float_of_int samples) down)
    in
    let downtime_hours = events_per_year *. mean_p *. mttr_hours in
    Float.max 0.0 (1.0 -. (downtime_hours /. hours_per_year))
  in
  {
    pairs = np;
    events_per_year;
    mttr_hours;
    shortest = availability down_shortest;
    riskroute = availability down_riskroute;
    reactive = availability down_reactive;
  }
