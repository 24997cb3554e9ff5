(* What every workload shares: set-up timing, the closed-loop timed
   phase, per-op bookkeeping for the traced run, and the result line. *)

let now = Unix.gettimeofday

(* --- set-up --- *)

(* One lazily built artifact. [first] forces the shared value the ops
   will use; [again] rebuilds the same artifact from scratch, so set-up
   can be measured more than once in a run. *)
type step = { name : string; first : unit -> unit; again : unit -> unit }

let step name ~first ~again = { name; first; again }

(* Wall time of each step, in order. *)
let run_steps ~first steps =
  List.map
    (fun s ->
      let t0 = now () in
      if first then s.first () else s.again ();
      (s.name, now () -. t0))
    steps

(* --- seeded inputs --- *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* A node id in [0, n) other than [src]. *)
let other rng ~n src = (src + 1 + Random.State.int rng (n - 1)) mod n

(* --- timed phase --- *)

type phase = {
  traced : bool;  (** spans and program counters on (Rr_obs enabled) *)
  mutable lat : (int * float) list;  (** (op key, seconds), newest first *)
  mutable paused : float;  (** seconds excluded from the phase's wall time *)
  mutable wall : float;
  mutable calibrated : float;  (** when the last calibration slice ended *)
  sums : (string, float) Hashtbl.t;  (** per-layer totals, traced phase *)
}

let phase ~traced =
  {
    traced;
    lat = [];
    paused = 0.0;
    wall = 0.0;
    calibrated = neg_infinity;
    sums = Hashtbl.create 64;
  }

let ops ph = List.length ph.lat

let add ph name v =
  Hashtbl.replace ph.sums name
    (v +. Option.value (Hashtbl.find_opt ph.sums name) ~default:0.0)

let sum ph name = Option.value (Hashtbl.find_opt ph.sums name) ~default:0.0

(* Calibration (Calib) samples are taken at least this often, between
   ops, and paused out of the phase: often enough that bursts of CPU
   steal, which last a fraction of a second, hit the samples as often
   as they hit the ops. *)
let calibration_interval = 0.15

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A calibration sample; the traced phase also keeps its wall and CPU
   time, which rr_util.cpu_per_wall leaves out. *)
let calibrate ph =
  let c0 = if ph.traced then cpu_s () else 0.0 in
  let dt = Calib.sample () in
  ph.paused <- ph.paused +. dt;
  ph.calibrated <- now ();
  if ph.traced then begin
    add ph "calib_wall" dt;
    add ph "calib_cpu" (cpu_s () -. c0)
  end

(* Work between ops that is not an op (a storm pass's opening build, a
   shadow re-run): timed into [name] and excluded from the phase's wall
   time. *)
let pause ph name f =
  let t0 = now () in
  let v = f () in
  let dt = now () -. t0 in
  ph.paused <- ph.paused +. dt;
  add ph name dt;
  v

(* Program counters summed per op in the traced phase. They count only
   while telemetry is enabled, which the traced phase turns on. *)
let counters =
  List.map
    (fun n -> (n, Rr_obs.Counter.make n))
    [
      "dijkstra.relaxations";
      "dijkstra.heap_pops";
      "dijkstra.repairs";
      "dijkstra.repair_full_fallbacks";
      "query.plain.runs";
      "query.bidir.runs";
      "query.alt.runs";
      "query.plain.settled";
      "query.bidir.settled";
      "query.alt.settled";
      "parallel.tasks";
    ]

(* Runtime and program counters, read before and after each traced op. *)
let readings () =
  ("minor_words", Gc.minor_words ())
  :: ("major_gcs", float_of_int (Gc.quick_stat ()).Gc.major_collections)
  :: List.map (fun (n, c) -> (n, float_of_int (Rr_obs.Counter.value c))) counters

(* Run one op from the single closed-loop caller: time it, and in the
   traced phase wrap it in an op span and add the counters' deltas.
   [cls] is the op's key, its position in the round (a tick, a query
   pair, a network): it groups an op's repeats for op_p50_ms and names
   its class for the class-share report. An op that raises yields
   [Error]; its time still counts. *)
let op ph ~name ~cls f =
  if now () -. ph.calibrated >= calibration_interval then calibrate ph;
  let before = if ph.traced then readings () else [] in
  let t0 = now () in
  let r = try Ok (Trace.span name f) with e -> Error e in
  let dt = now () -. t0 in
  ph.lat <- (cls, dt) :: ph.lat;
  if ph.traced then
    List.iter2 (fun (n, a) (_, b) -> add ph n (b -. a)) before (readings ());
  r

(* Context.stats deltas over one op. *)
let add_stats ph (s0 : Rr_engine.Context.stats) (s1 : Rr_engine.Context.stats) =
  let d name a b = add ph name (float_of_int (b - a)) in
  d "tree_hits" s0.tree_hits s1.tree_hits;
  d "tree_misses" s0.tree_misses s1.tree_misses;
  d "settled_nodes" s0.settled_nodes s1.settled_nodes;
  d "patched_arcs" s0.delta_patched_arcs s1.delta_patched_arcs;
  d "trees_kept" s0.delta_trees_kept s1.delta_trees_kept;
  d "trees_repaired" s0.delta_trees_repaired s1.delta_trees_repaired;
  d "trees_evicted" s0.delta_trees_evicted s1.delta_trees_evicted

(* The stats of a context nothing has used yet. *)
let zero_stats : Rr_engine.Context.stats =
  {
    env_hits = 0;
    env_misses = 0;
    env_patched = 0;
    tree_hits = 0;
    tree_misses = 0;
    tree_evictions = 0;
    settled_nodes = 0;
    delta_patched_arcs = 0;
    delta_trees_kept = 0;
    delta_trees_repaired = 0;
    delta_trees_evicted = 0;
  }

(* Closed loop: whole rounds (a storm pass, a plan cycle, a batch of
   explain pairs) back to back until [seconds] of unpaused wall time
   have passed. Stopping on round boundaries keeps every run's op mix
   identical, so the throughput does not depend on where the clock cut
   a round. Calibration samples open and close the phase, besides
   those between ops. *)
let run_phase ph ~seconds round =
  let t_start = now () in
  let elapsed () = now () -. t_start -. ph.paused in
  calibrate ph;
  round ph;
  while elapsed () < seconds do
    round ph
  done;
  calibrate ph;
  ph.wall <- elapsed ()

(* --- workloads --- *)

(* A workload as main.ml sees it. [round] and everything after it are
   valid once the first set-up has run. *)
type workload = {
  steps : step list;
  tail : float;
      (** op_tail_ms percentile: the highest of p80/p90/p95/p99 with at
          least 10 ops beyond it at the run length BENCHMARK.json fixes *)
  round : phase -> unit;
  attempted : unit -> int;
  failed : unit -> int;  (** judges every op against the reference *)
  class_name : int -> string;  (** op class of an op's [cls] key *)
  inputs : unit -> string;  (** the seeded choices, for the record *)
}

(* --- results --- *)

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The result object, printed as the last stdout line. *)
let result_line ~correct ~attempted ~failed metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" m.name
        m.value m.unit_)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b
