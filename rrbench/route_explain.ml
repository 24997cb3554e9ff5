(* route-explain: the analyst's interactive "why does this route
   detour?" query.

   Each op explains one seeded PoP pair on continental-10000
   ([Rr_explain.explain_continental]) and renders the record as JSON.
   A round is the seeded list of pairs once. No environment is built or
   patched; the tree LRU holds only the landmark trees forced in
   set-up. *)

open Rr_engine

let pops = 10_000
let pair_count = 64

type out = { exact : bool; cost : float; path : int list }

type t = {
  ctx : Context.t;
  net : Rr_topology.Net.t;
  pairs : (int * int) array;
  outcomes : out Stats.outcomes;
}

(* One query; also returns the [explain_continental] span for the
   shadows. *)
let explain st (src, dst) =
  match
    Trace.call "rr_explain.explain_continental" (fun () ->
        Rr_explain.explain_continental st.ctx ~pops ~src ~dst)
  with
  | Error e, _ -> failwith e
  | Ok t, explained ->
    let json = Trace.span "rr_explain.to_json" (fun () -> Rr_explain.to_json t) in
    ( {
      exact =
        t.Rr_explain.riskroute.Rr_explain.exact
        && t.Rr_explain.shortest.Rr_explain.exact
        && String.length json > 2
        && json.[0] = '{';
      cost = t.Rr_explain.riskroute.Rr_explain.bit_risk_miles;
      path = t.Rr_explain.riskroute.Rr_explain.path;
    },
      explained )

(* Arc weights of both queries, built exactly as [explain_continental]
   builds them: pure bit-miles, and bit-risk miles under the pair's
   kappa. *)
let weights st ~pop_risks ~impact (src, dst) =
  let q = Context.net_query st.ctx st.net in
  let miles = Rr_graph.Query.arc_miles q and tgt = Rr_graph.Query.arc_tgt q in
  let p = Riskroute.Params.default in
  let node_risk =
    Array.map
      (fun r -> p.Riskroute.Params.lambda_h *. p.Riskroute.Params.risk_scale *. r)
      pop_risks
  in
  let kappa = impact.(src) +. impact.(dst) in
  ( q,
    (fun k ->
      Array.unsafe_get miles k
      +. (kappa *. Array.unsafe_get node_risk (Array.unsafe_get tgt k))),
    fun k -> Array.unsafe_get miles k )

(* The inner calls of [explain_continental], re-run on the same
   inputs outside the timed phase. *)
let shadow ph st ~explained ((src, dst) as pair) =
  Harness.pause ph "shadow_s" @@ fun () ->
  let sh name f = Trace.shadow ~of_:explained name f in
  let pop_risks =
    sh "rr_disaster.pop_risks" (fun () ->
        Rr_disaster.Riskmap.pop_risks (Context.riskmap st.ctx) st.net)
  in
  let impact =
    sh "rr_topology.population_fractions" (fun () ->
        Rr_topology.Net.population_fractions st.net)
  in
  let q, w_risk, w_miles = weights st ~pop_risks ~impact pair in
  List.iter
    (fun weight ->
      ignore
        (sh "rr_graph.query" (fun () ->
             Rr_graph.Query.run_stats q ~weight ~src ~dst)))
    [ w_risk; w_miles ]

let round st ph =
  let traced = ph.Harness.traced in
  Array.iteri
    (fun i pair ->
      let s0 = if traced then Context.stats st.ctx else Harness.zero_stats in
      match
        Harness.op ph ~name:"route-explain.op" ~cls:i (fun () ->
            explain st pair)
      with
      | Ok (out, explained) ->
        Stats.observe st.outcomes ~key:i out;
        if traced then begin
          Harness.add_stats ph s0 (Context.stats st.ctx);
          Harness.add ph "tree_cache_length"
            (float_of_int (Context.tree_cache_length st.ctx));
          shadow ph st ~explained pair
        end
      | Error _ -> Stats.raised st.outcomes)
    st.pairs

(* Both sides exact, and the riskroute cost and path equal a plain
   single-pair Dijkstra under the same weights. *)
let failed st =
  let pop_risks = Rr_disaster.Riskmap.pop_risks (Context.riskmap st.ctx) st.net in
  let impact = Rr_topology.Net.population_fractions st.net in
  let reference =
    Array.map
      (fun ((src, dst) as pair) ->
        let q, w_risk, _ = weights st ~pop_risks ~impact pair in
        Rr_graph.Dijkstra.single_pair_flat ~n:(Rr_graph.Query.node_count q)
          ~off:(Rr_graph.Query.arc_off q) ~tgt:(Rr_graph.Query.arc_tgt q)
          ~weight:w_risk ~src ~dst)
      st.pairs
  in
  Stats.failed st.outcomes ~ok:(fun i out ->
      match reference.(i) with
      | Some (cost, path) -> out.exact && Stats.same_float cost out.cost && path = out.path
      | None -> false)

let draw_pairs ~seed =
  let rng = Random.State.make [| seed; 0xe7 |] in
  Array.init pair_count (fun _ ->
      let src = Random.State.int rng pops in
      (src, Harness.other rng ~n:pops src))

let make ~seed =
  let ctx = ref None and net = ref None and state = ref None in
  let st () = Option.get !state in
  {
    Harness.tail = 0.95 (* ~550 queries in 15 s *);
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
              let c = Context.create () in
              ctx := Some c;
              net := Some (Context.continental c ~pops))
            ~again:(fun () ->
              ignore (Context.continental (Context.create ()) ~pops));
          step "rr_graph.landmarks"
            ~first:(fun () ->
              Rr_graph.Query.prepare
                (Context.net_query (Option.get !ctx) (Option.get !net)))
            ~again:(fun () ->
              Rr_graph.Query.prepare
                (Context.net_query (Context.create ()) (Option.get !net)));
          step "inputs"
            ~first:(fun () ->
              state :=
                Some
                  {
                    ctx = Option.get !ctx;
                    net = Option.get !net;
                    pairs = draw_pairs ~seed;
                    outcomes = Stats.outcomes ();
                  })
            ~again:(fun () -> ignore (draw_pairs ~seed));
        ];
    round = (fun ph -> round (st ()) ph);
    attempted = (fun () -> (st ()).outcomes.Stats.attempted);
    failed = (fun () -> failed (st ()));
    class_name = (fun _ -> "explain");
    inputs =
      (fun () ->
        Printf.sprintf "%d pairs, first %s" pair_count
          (String.concat " "
             (List.init 4 (fun i ->
                  let s, d = (st ()).pairs.(i) in
                  Printf.sprintf "%d->%d" s d))));
  }
