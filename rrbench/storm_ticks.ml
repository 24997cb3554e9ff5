(* storm-ticks: the storm-time operator's advisory-to-advice latency.

   Irene, Katrina and Sandy, back to back in a seeded order, make one
   stream of 191 advisory texts over continental-10000. Each op is one
   tick: parse the advisory, derive its environment from the previous
   tick's ([Context.patched_env]), then look up the risk and distance
   trees of 8 seeded flows and read their paths — the per-tick engine
   calls of a storm replay. A pass is the whole stream on a fresh
   context, opened by a full build (no-advisory environment plus cold
   trees) that is timed as [open_s] and is not an op; every pass with
   the same storm order and flows therefore repeats the same work. *)

open Rr_engine

let pops = 10_000
let flow_count = 8

(* Seeded sets of 8 flows. Pass p runs set [p mod flow_sets], so a run's
   latencies cover 16 flows instead of resting on 8: a tick's cost is
   mostly the repair of the flows' risk trees, which depends on where
   the sources lie against the storm tracks. Every set is checked
   against a from-scratch rebuild of every tick, which adds about 2.3 s
   to a run per set, so there are two. *)
let flow_sets = 2

(* Pass p runs the storms in the (p mod 6)-th of the six orders, which
   the seed shuffles. A storm's first advisory has an empty field, so it
   clears the field the previous storm's last advisory left, and that
   field ranges from 29 PoPs (Irene) to 3075 (Sandy): the order decides
   the costliest ticks, and with one order per run it moved the p99
   tick by 15%. *)
let orders =
  [| [| 0; 1; 2 |]; [| 0; 2; 1 |]; [| 1; 0; 2 |]; [| 1; 2; 0 |]; [| 2; 0; 1 |]; [| 2; 1; 0 |] |]

(* Per flow: risk path, its risk-tree cost, the shortest bit-miles. *)
type tick = (int list option * float * float) array

type t = {
  net : Rr_topology.Net.t;
  storms : Rr_forecast.Track.storm array;  (** [Track.all] *)
  texts : string array;  (** every advisory, storm by storm in [storms] order *)
  first : int array;  (** index in [texts] of each storm's first advisory *)
  orders : int array array;  (** the storm orders, in seeded order *)
  flows : (int * int) array array;  (** [flow_sets] sets of [flow_count] *)
  outcomes : tick Stats.outcomes;  (** keyed by advisory * flow set *)
  mutable passes : int;
}

(* An op's key: its advisory, and whether it opens the pass (then its
   environment derives from the opener's, not from another storm's). *)
let key ~advisory ~opens = (2 * advisory) + if opens then 1 else 0

let parse text =
  match Rr_forecast.Parse.advisory text with
  | Ok a -> a
  | Error e -> failwith (Rr_forecast.Parse.error_to_string e)

(* One tick; also returns the [patched_env] span for the shadows. *)
let tick ctx st ~flows ~parent text =
  let adv = Trace.span "rr_forecast.parse" (fun () -> parse text) in
  let env, patched =
    Trace.call "rr_engine.patched_env" (fun () ->
        Context.patched_env ~advisory:adv ctx st.net ~parent)
  in
  let lookup f = Trace.span "rr_engine.tree_lookup" f in
  let risk = lookup (fun () -> Context.risk_trees ctx env) in
  let dist = lookup (fun () -> Context.dist_trees ctx env) in
  let out =
    Array.map
      (fun (src, dst) ->
        let rt = lookup (fun () -> risk src) in
        let path =
          Trace.span "rr_graph.path_of_tree" (fun () ->
              Rr_graph.Dijkstra.path_of_tree rt ~src ~dst)
        in
        let dt = lookup (fun () -> dist src) in
        (path, rt.Rr_graph.Dijkstra.dist.(dst), dt.Rr_graph.Dijkstra.dist.(dst)))
      flows
  in
  (adv, env, out, patched)

(* The inner calls of [patched_env], re-run on the same inputs
   outside the timed phase. *)
let shadow ph ~patched ~parent adv =
  Harness.pause ph "shadow_s" @@ fun () ->
  let params = Riskroute.Env.params parent in
  let d =
    Trace.shadow ~of_:patched "rr_forecast.diff_field"
      (fun () ->
        Rr_forecast.Riskfield.diff_field
          ~rho_tropical:params.Riskroute.Params.rho_tropical
          ~rho_hurricane:params.Riskroute.Params.rho_hurricane
          ~old_field:(Riskroute.Env.forecast parent) ~next:(Some adv)
          (Riskroute.Env.coords parent))
  in
  ignore
    (Trace.shadow ~of_:patched "riskroute.env_patch"
       (fun () ->
         Riskroute.Env.patch parent ~indices:d.Rr_forecast.Riskfield.indices
           ~values:d.Rr_forecast.Riskfield.values));
  let changed = Array.length d.Rr_forecast.Riskfield.indices in
  Harness.add ph "changed_pops" (float_of_int changed);
  Harness.add ph "empty_delta" (if changed = 0 then 1.0 else 0.0)

(* Index in [texts] just past storm [s]'s last advisory. *)
let storm_end st s =
  if s + 1 < Array.length st.first then st.first.(s + 1) else Array.length st.texts

(* The advisories of a pass in stream order, as indices into [texts]. *)
let stream st order =
  Array.concat
    (Array.to_list
       (Array.map
          (fun s ->
            let lo = st.first.(s) in
            Array.init (storm_end st s - lo) (fun j -> lo + j))
          order))

let pass st ph =
  let traced = ph.Harness.traced in
  let set = st.passes mod flow_sets in
  let order = st.orders.(st.passes mod Array.length st.orders) in
  st.passes <- st.passes + 1;
  let flows = st.flows.(set) in
  let ctx, env0 =
    Harness.pause ph "open_s" (fun () ->
        let ctx = Context.create () in
        let env0 = Context.env ctx st.net in
        let risk = Context.risk_trees ctx env0
        and dist = Context.dist_trees ctx env0 in
        Array.iter
          (fun (src, _) ->
            ignore (risk src);
            ignore (dist src))
          flows;
        (ctx, env0))
  in
  Harness.add ph "passes" 1.0;
  let parent = ref env0 in
  Array.iteri
    (fun i a ->
      let s0 = if traced then Context.stats ctx else Harness.zero_stats in
      match
        Harness.op ph ~name:"storm-ticks.op" ~cls:(key ~advisory:a ~opens:(i = 0))
          (fun () -> tick ctx st ~flows ~parent:!parent st.texts.(a))
      with
      | Ok (adv, env, out, patched) ->
        Stats.observe st.outcomes ~key:((a * flow_sets) + set) out;
        if traced then begin
          Harness.add_stats ph s0 (Context.stats ctx);
          Harness.add ph "tree_cache_length"
            (float_of_int (Context.tree_cache_length ctx));
          shadow ph ~patched ~parent:!parent adv
        end;
        parent := env
      | Error _ -> Stats.raised st.outcomes)
    (stream st order)

(* From-scratch reference for every tick and flow set: a fresh context,
   a fresh environment for the advisory and fresh trees — what a
   full-rebuild replay does. Shortest bit-miles depend on geometry only,
   so their trees are built once. *)
let reference st =
  let fresh_dist =
    let ctx = Context.create () in
    Context.dist_trees ctx (Context.env ctx st.net)
  in
  let miles =
    Array.map
      (Array.map (fun (src, dst) -> (fresh_dist src).Rr_graph.Dijkstra.dist.(dst)))
      st.flows
  in
  Rr_util.Parallel.map_array
    (fun text ->
      let ctx = Context.create ~tree_cache_cap:(flow_count * flow_sets) () in
      let env = Context.env ~advisory:(parse text) ctx st.net in
      let risk = Context.risk_trees ctx env in
      Array.mapi
        (fun set flows ->
          Array.mapi
            (fun k (src, dst) ->
              let rt = risk src in
              ( Rr_graph.Dijkstra.path_of_tree rt ~src ~dst,
                rt.Rr_graph.Dijkstra.dist.(dst),
                miles.(set).(k) ))
            flows)
        st.flows)
    st.texts

let same (p, r, m) (p', r', m') =
  p = p' && Stats.same_float r r' && Stats.same_float m m'

(* Whether an op key's field delta is empty: the cheap op class. An
   advisory's predecessor is the one before it in its storm; a storm's
   first advisory follows the opener's no-advisory environment when it
   opens the pass, and otherwise the last advisory of whichever storm
   came before it, so it is empty only if it is empty after each. *)
let empty_delta st =
  let coords =
    Array.map
      (fun (p : Rr_topology.Pop.t) -> p.Rr_topology.Pop.coord)
      st.net.Rr_topology.Net.pops
  in
  let advs = Array.map parse st.texts in
  let empty prev a =
    Array.length
      (Rr_forecast.Riskfield.diff ~prev ~next:(Some advs.(a)) coords)
        .Rr_forecast.Riskfield.indices
    = 0
  in
  let storm_of a =
    let s = ref 0 in
    Array.iteri (fun i lo -> if a >= lo then s := i) st.first;
    !s
  in
  let last s = storm_end st s - 1 in
  let table = Hashtbl.create 256 in
  Array.iteri
    (fun a _ ->
      let s = storm_of a in
      let mid =
        if a > st.first.(s) then empty (Some advs.(a - 1)) a
        else
          Array.for_all
            (fun s' -> s' = s || empty (Some advs.(last s')) a)
            (Array.init (Array.length st.first) Fun.id)
      in
      Hashtbl.replace table (key ~advisory:a ~opens:false) mid;
      if a = st.first.(s) then Hashtbl.replace table (key ~advisory:a ~opens:true) (empty None a))
    advs;
  fun k -> Hashtbl.find table k

let failed st =
  let reference = reference st in
  Stats.failed st.outcomes ~ok:(fun key out ->
      let expected = reference.(key / flow_sets).(key mod flow_sets) in
      Array.length out = Array.length expected && Array.for_all2 same out expected)

(* [flow_sets] sets of flows, each with one source from each of 8
   equal-count strata of PoPs ranked by their distance to the nearest
   advisory centre of the stream, so that every set sits near the storm
   tracks in the same proportion: a tick's cost is mostly the repair of
   its flows' risk trees, which grows as the source nears the storm. The
   seed picks the PoP within each stratum and the destination. The
   distance is an equirectangular approximation, enough for a ranking,
   so that drawing the inputs runs no program code. *)
let draw_flows ~seed net texts =
  let rng = Random.State.make [| seed; 0xf10 |] in
  let n = Rr_topology.Net.pop_count net in
  let centers =
    Array.map (fun t -> (parse t).Rr_forecast.Advisory.center) texts
  in
  let near i =
    let c = (Rr_topology.Net.pop net i).Rr_topology.Pop.coord in
    let k = Float.cos (c.Rr_geo.Coord.lat *. Float.pi /. 180.0) in
    Array.fold_left
      (fun best (a : Rr_geo.Coord.t) ->
        let dx = (c.Rr_geo.Coord.lon -. a.Rr_geo.Coord.lon) *. k
        and dy = c.Rr_geo.Coord.lat -. a.Rr_geo.Coord.lat in
        Float.min best ((dx *. dx) +. (dy *. dy)))
      infinity centers
  in
  let dist = Array.init n near in
  let ranked = Array.init n Fun.id in
  Array.sort (fun a b -> compare (dist.(a), a) (dist.(b), b)) ranked;
  let strata =
    Array.init flow_count (fun s ->
        Array.sub ranked (s * n / flow_count) (((s + 1) * n / flow_count) - (s * n / flow_count)))
  in
  Array.init flow_sets (fun _ ->
      Array.map
        (fun stratum ->
          let src = stratum.(Random.State.int rng (Array.length stratum)) in
          (src, Harness.other rng ~n src))
        strata)

let make ~seed =
  let rng = Random.State.make [| seed; 0x5707 |] in
  let storms = Array.of_list Rr_forecast.Track.all in
  let seeded_orders = Array.copy orders in
  Harness.shuffle rng seeded_orders;
  let net = ref None and texts = ref [||] and state = ref None in
  let st () = Option.get !state in
  let empty = lazy (empty_delta (st ())) in
  {
    Harness.tail = 0.99 (* ~2600 ticks in 12 s *);
    steps =
      Harness.
        [
          step "rr_topology.zoo"
            ~first:(fun () -> ignore (Rr_topology.Zoo.shared ()))
            ~again:(fun () -> ignore (Rr_topology.Zoo.create ()));
          step "rr_disaster.riskmap"
            ~first:(fun () -> ignore (Rr_disaster.Riskmap.shared ()))
            ~again:(fun () ->
              ignore
                (Rr_disaster.Riskmap.build (Rr_disaster.Catalog.generate ())));
          step "rr_topology.continental"
            ~first:(fun () ->
              net := Some (Context.continental (Context.create ()) ~pops))
            ~again:(fun () ->
              ignore (Context.continental (Context.create ()) ~pops));
          step "rr_forecast.advisory_texts"
            ~first:(fun () ->
              texts :=
                Array.map
                  (fun s -> Array.of_list (Rr_forecast.Track.advisory_texts s))
                  storms)
            ~again:(fun () ->
              Array.iter
                (fun s -> ignore (Rr_forecast.Track.advisory_texts s))
                storms);
          step "inputs"
            ~first:(fun () ->
              let net = Option.get !net in
              let all = Array.concat (Array.to_list !texts) in
              let first = Array.make (Array.length storms) 0 in
              for s = 1 to Array.length storms - 1 do
                first.(s) <- first.(s - 1) + Array.length !texts.(s - 1)
              done;
              state :=
                Some
                  {
                    net;
                    storms;
                    texts = all;
                    first;
                    orders = seeded_orders;
                    flows = draw_flows ~seed net all;
                    outcomes = Stats.outcomes ();
                    passes = 0;
                  })
            ~again:(fun () ->
              ignore (draw_flows ~seed (Option.get !net) (Array.concat (Array.to_list !texts))));
        ];
    round = (fun ph -> pass (st ()) ph);
    attempted = (fun () -> (st ()).outcomes.Stats.attempted);
    failed = (fun () -> failed (st ()));
    class_name = (fun k -> if Lazy.force empty k then "empty-delta" else "changed");
    inputs =
      (fun () ->
        let st = st () in
        let name s = st.storms.(s).Rr_forecast.Track.name in
        Printf.sprintf "%d advisories; storm orders by pass %s; flow sets %s"
          (Array.length st.texts)
          (String.concat " | "
             (Array.to_list
                (Array.map
                   (fun o -> String.concat "," (Array.to_list (Array.map name o)))
                   st.orders)))
          (String.concat " | "
             (Array.to_list
                (Array.map
                   (fun flows ->
                     String.concat " "
                       (Array.to_list
                          (Array.map (fun (s, d) -> Printf.sprintf "%d->%d" s d) flows)))
                   st.flows))));
  }
