(* tier1-plan: the planner's work (Tables 2-3, Fig. 9).

   Each op plans one Tier-1 network on a fresh context with the CLI's
   defaults: a dense environment, the 5 best extra links (Eq. 4) through
   the context's tree providers, the Eq. 5-6 ratios, the Monte Carlo
   outage simulation and a backup plan for a seeded pair. A round is the
   seven networks once, in seeded order. *)

open Rr_engine

let links = 5
let ratio_pairs = 6000

type out = {
  picks : Riskroute.Augment.pick list;
  ratios : Riskroute.Ratios.result;
  outage : Riskroute.Outagesim.result;
  backup : Riskroute.Backup.plan option;
}

(* Seeded variants per network, each an outage-simulation seed and a
   backup pair. Round r plans with variant [r mod sim_variants], so a
   run's latencies cover several strike samples and pairs per network
   instead of resting on one: with one per network, the small networks'
   plan times, and so p50 and p80, shifted with the seed. *)
let sim_variants = 4

type variant = {
  sim_seed : int64;  (** outage simulation RNG seed *)
  src : int;  (** backup pair *)
  dst : int;
}

(* One network's seeded inputs. *)
type target = { net : Rr_topology.Net.t; variants : variant array }

type t = {
  targets : target array;
  outcomes : out Stats.outcomes;  (** keyed by network * variant *)
  mutable rounds : int;
}

let plan ?dist_trees ?risk_trees env v =
  let picks =
    Trace.span "riskroute.augment" (fun () ->
        Riskroute.Augment.greedy ~k:links ?dist_trees ?risk_trees env)
  in
  let ratios =
    Trace.span "riskroute.ratios" (fun () ->
        Riskroute.Ratios.intradomain ~pair_cap:ratio_pairs ?trees:dist_trees env)
  in
  let outage =
    Trace.span "riskroute.outagesim" (fun () ->
        Riskroute.Outagesim.run ~rng:(Rr_util.Prng.create v.sim_seed) env)
  in
  let backup =
    Trace.span "riskroute.backup" (fun () ->
        Riskroute.Backup.plan env ~src:v.src ~dst:v.dst)
  in
  { picks; ratios; outage; backup }

let round st ph =
  let traced = ph.Harness.traced in
  let variant = st.rounds mod sim_variants in
  st.rounds <- st.rounds + 1;
  Array.iteri
    (fun i tg ->
      let ctx = ref None in
      match
        Harness.op ph ~name:"tier1-plan.op" ~cls:i (fun () ->
            let c = Context.create () in
            ctx := Some c;
            let env =
              Trace.span "riskroute.env_build" (fun () -> Context.env c tg.net)
            in
            plan ~dist_trees:(Context.dist_trees c env)
              ~risk_trees:(Context.risk_trees c env) env tg.variants.(variant))
      with
      | Ok out ->
        Stats.observe st.outcomes ~key:((i * sim_variants) + variant) out;
        if traced then begin
          let c = Option.get !ctx in
          Harness.add_stats ph Harness.zero_stats (Context.stats c);
          Harness.add ph "tree_cache_length"
            (float_of_int (Context.tree_cache_length c))
        end
      | Error _ -> Stats.raised st.outcomes)
    st.targets

(* The same plan with no tree providers and no context: every tree is
   computed afresh inside the analyses. *)
let failed st =
  let envs =
    Array.map
      (fun tg ->
        lazy (Riskroute.Env.of_net ~riskmap:(Rr_disaster.Riskmap.shared ()) tg.net))
      st.targets
  in
  Stats.failed st.outcomes ~ok:(fun key out ->
      let i = key / sim_variants in
      let tg = st.targets.(i) in
      let reference = plan (Lazy.force envs.(i)) tg.variants.(key mod sim_variants) in
      compare out reference = 0)

(* The seven Tier-1 networks in seeded order, each with its variants. *)
let draw_targets ~seed =
  let rng = Random.State.make [| seed; 0x71e1 |] in
  let nets = Array.of_list (Rr_topology.Zoo.shared ()).Rr_topology.Zoo.tier1s in
  Harness.shuffle rng nets;
  Array.map
    (fun net ->
      let n = Rr_topology.Net.pop_count net in
      let variant _ =
        let sim_seed = Random.State.int64 rng Int64.max_int in
        let src = Random.State.int rng n in
        { sim_seed; src; dst = Harness.other rng ~n src }
      in
      { net; variants = Array.init sim_variants variant })
    nets

let make ~seed =
  let state = ref None in
  let st () = Option.get !state in
  let tier1s () = (Rr_topology.Zoo.shared ()).Rr_topology.Zoo.tier1s in
  {
    Harness.tail = 0.80 (* ~90 plans in 15 s *);
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
          step "rr_census.blocks"
            ~first:(fun () -> ignore (Rr_census.Synthetic.shared ()))
            ~again:(fun () -> ignore (Rr_census.Synthetic.generate ()));
          step "rr_census.fractions"
            ~first:(fun () ->
              List.iter
                (fun n -> ignore (Rr_census.Service.shared_fractions n))
                (tier1s ()))
            ~again:(fun () ->
              List.iter
                (fun n ->
                  ignore
                    (Rr_census.Service.fractions n (Rr_census.Synthetic.shared ())))
                (tier1s ()));
          step "inputs"
            ~first:(fun () ->
              state :=
                Some
                  {
                    targets = draw_targets ~seed;
                    outcomes = Stats.outcomes ();
                    rounds = 0;
                  })
            ~again:(fun () -> ignore (draw_targets ~seed));
        ];
    round = (fun ph -> round (st ()) ph);
    attempted = (fun () -> (st ()).outcomes.Stats.attempted);
    failed = (fun () -> failed (st ()));
    class_name = (fun i -> (st ()).targets.(i).net.Rr_topology.Net.name);
    inputs =
      (fun () ->
        String.concat "; "
          (Array.to_list
             (Array.map
                (fun tg ->
                  Printf.sprintf "%s (backup pair, outage seed: %s)"
                    tg.net.Rr_topology.Net.name
                    (String.concat ", "
                       (Array.to_list
                          (Array.map
                             (fun v -> Printf.sprintf "%d->%d %Ld" v.src v.dst v.sim_seed)
                             tg.variants))))
                (st ()).targets)));
  }
