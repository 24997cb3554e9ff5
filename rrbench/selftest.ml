(* Self-tests of the benchmark's own arithmetic on fixed samples:
   percentile selection and the ">= 10 ops beyond" rule, the per-key
   op_p50_ms, quartiles as Python's statistics.quantiles gives them,
   failure accounting, the reference-speed arithmetic, self time on a
   synthetic trace with shadow spans, and span recording through
   Rr_obs. *)

let checks = ref 0
let failures = ref 0

let check name ok =
  incr checks;
  if not ok then begin
    Printf.printf "FAIL %s\n" name;
    incr failures
  end

let close a b = Float.abs (a -. b) < 1e-9

let () =
  (* Nearest-rank percentiles. *)
  let xs = Stats.sorted (Array.init 100 (fun i -> float_of_int (100 - i))) in
  check "p90 of 1..100 is 90" (Stats.percentile xs 0.9 = 90.0);
  check "p99 of 1..100 is 99" (Stats.percentile xs 0.99 = 99.0);
  check "p100 is the maximum" (Stats.percentile xs 1.0 = 100.0);
  check "p50 of 10 samples is the 5th" (Stats.rank ~n:10 0.5 = 5);
  check "tiny p is the minimum" (Stats.rank ~n:10 0.001 = 1);
  check "p90 of 100 leaves 10 beyond" (Stats.beyond ~n:100 0.9 = 10);
  check "p99 of 1146 leaves 11 beyond" (Stats.beyond ~n:1146 0.99 = 11);
  (* The tail percentile: highest candidate with >= 10 ops beyond. *)
  let candidates = [ 0.8; 0.9; 0.95; 0.99 ] in
  check "100 ops -> p90" (Stats.tail_percentile ~n:100 candidates = Some 0.9);
  check "99 ops -> p80" (Stats.tail_percentile ~n:99 candidates = Some 0.8);
  check "200 ops -> p95" (Stats.tail_percentile ~n:200 candidates = Some 0.95);
  check "1000 ops -> p99" (Stats.tail_percentile ~n:1000 candidates = Some 0.99);
  check "candidate order does not matter"
    (Stats.tail_percentile ~n:1000 (List.rev candidates) = Some 0.99);
  check "49 ops -> none" (Stats.tail_percentile ~n:49 candidates = None);
  (* Medians and quartiles, pinned to statistics.quantiles (n=4). *)
  let q3 xs = Stats.quartiles (Array.of_list xs) in
  let same (a, b, c) (a', b', c') = close a a' && close b b' && close c c' in
  check "quartiles of 1..10"
    (same (q3 (List.init 10 (fun i -> float_of_int (i + 1)))) (2.75, 5.5, 8.25));
  check "quartiles of 3 samples" (same (q3 [ 3.0; 1.0; 2.0 ]) (1.0, 2.0, 3.0));
  check "quartiles of 7 samples"
    (same (q3 [ 5.0; 1.0; 4.0; 2.0; 3.0; 10.0; 7.0 ]) (2.0, 4.0, 7.0));
  check "quartiles of equal samples" (same (q3 [ 2.5; 2.5 ]) (2.5, 2.5, 2.5));
  check "median, even count" (Stats.median [| 4.0; 1.0; 3.0; 2.0 |] = 2.5);
  check "median, odd count" (Stats.median [| 9.0; 1.0; 5.0 |] = 5.0);
  (* Per-key means first: a slow repeat of a cheap op does not move
     the median across the class boundary. *)
  let samples =
    List.concat_map
      (fun (k, xs) -> List.map (fun x -> (k, x)) xs)
      [ (0, [ 1.0; 1.0; 1.0; 8.0 ]); (1, [ 1.0; 8.0; 1.0; 1.0 ]);
        (2, [ 1.0; 1.0; 8.0; 1.0 ]); (3, [ 6.0; 6.0; 6.0; 6.0 ]);
        (4, [ 7.0; 7.0; 7.0; 7.0 ]) ]
  in
  check "median over all samples crosses into the costly class"
    (Stats.median (Array.of_list (List.map snd samples)) = 6.0);
  check "keyed p50 stays in the cheap class" (Stats.keyed_p50 samples = 2.75);
  check "keyed p50 is the median of key means"
    (Stats.keyed_p50 [ (0, 1.0); (0, 3.0); (1, 10.0); (2, 4.0); (2, 8.0) ] = 6.0);
  (* Failure accounting: repeats share one judgement, raised ops and
     outputs the reference rejects both count. *)
  let o = Stats.outcomes () in
  List.iter (fun (k, v) -> Stats.observe o ~key:k v) [ (0, 1); (0, 1); (1, 2); (1, 3); (0, 1) ];
  Stats.raised o;
  let judged = ref 0 in
  let failed =
    Stats.failed o ~ok:(fun k v ->
        incr judged;
        v = k + 2)
  in
  check "attempted counts every op" (o.Stats.attempted = 6);
  check "each distinct output judged once" (!judged = 3);
  check "failed = raised + rejected repeats" (failed = 1 + 3 + 1);
  check "fail_ratio" (close (Stats.fail_ratio ~attempted:6 ~failed) (5.0 /. 6.0));
  check "fail_ratio of a clean run" (Stats.fail_ratio ~attempted:5 ~failed:0 = 0.0);
  check "fail_ratio needs an op"
    (match Stats.fail_ratio ~attempted:0 ~failed:0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check "bitwise float equality" (Stats.same_float 0.1 0.1 && not (Stats.same_float 0.0 (-0.0)));
  (* Reference speed: the slowdown is the mean slice time over the
     reference; times divide by it, rates multiply, the rest stay. *)
  let r = Calib.reference_s in
  check "slowdown is the mean slice over the reference"
    (close (Calib.slowdown [ r; 2.0 *. r; 3.0 *. r ]) 2.0);
  check "slowdown needs a slice"
    (match Calib.slowdown [] with _ -> false | exception Invalid_argument _ -> true);
  let at unit_ = Calib.at_reference ~slowdown:2.0 ~unit_ 10.0 in
  check "times divide by the slowdown" (at "s" = 5.0 && at "ms" = 5.0 && at "us" = 5.0);
  check "rates multiply by it" (at "1/s" = 20.0);
  check "sizes, counts and ratios stay"
    (at "MB" = 10.0 && at "count" = 10.0 && at "ratio" = 10.0);
  let took = Calib.sample () in
  check "a sample records one slice per domain"
    (match Calib.slices () with
    | [ a; b ] -> a > 0.0 && b > 0.0 && took >= Float.max a b
    | _ -> false);
  (* Self time on a synthetic trace: an op with two overlapping calls, a
     call with two shadow re-runs, and a shadow longer than its
     parent. *)
  let sp id name parent t0 t1 = { Trace.id; name; parent; t0; t1 } in
  let shadow = Trace.shadow_prefix ^ "inner" in
  let spans =
    [
      sp 1 "op" 0 0.0 10.0;
      sp 2 "a" 1 1.0 4.0;
      sp 3 "b" 1 3.0 6.0;
      sp 4 "c" 1 6.0 9.5;
      sp 5 shadow 4 11.0 12.0;
      sp 6 shadow 4 12.0 12.5;
      sp 7 "d" 1 9.5 9.75;
      sp 8 shadow 7 13.0 14.0;
      sp 9 "late" 1 9.9 10.5;
    ]
  in
  let self = Trace.self_times spans in
  check "op self = duration - union of calls" (close (Hashtbl.find self 1) (10.0 -. 5.0 -. 3.5 -. 0.25 -. 0.1));
  check "call self = duration - shadows" (close (Hashtbl.find self 4) (3.5 -. 1.5));
  check "self clamps at zero" (Hashtbl.find self 7 = 0.0);
  check "leaf self = duration" (close (Hashtbl.find self 2) 3.0);
  let totals = Trace.totals spans in
  let d, s = Hashtbl.find totals shadow in
  check "totals sum durations by name" (close d 2.5 && close s 2.5);
  (* Recording through Rr_obs: nesting, shadow parents, and only the
     benchmark's own spans. *)
  let off = Trace.span "off" (fun () -> 7) in
  Rr_obs.set_enabled true;
  let v, outer =
    Trace.span "w.op" (fun () ->
        let v, outer =
          Trace.call "outer" (fun () ->
              Rr_obs.with_span "program.inner" (fun () ->
                  Trace.span "inner" (fun () -> 41)))
        in
        (v + 1, outer))
  in
  Trace.shadow ~of_:outer "outer" (fun () -> ());
  Rr_obs.set_enabled false;
  let recorded = Trace.recorded () in
  let find name = List.find (fun s -> s.Trace.name = name) recorded in
  check "span returns the call's value" (v = 42 && off = 7);
  check "call returns its span id" ((find "outer").Trace.id = outer);
  check "children point at their parent"
    ((find "outer").Trace.parent = (find "w.op").Trace.id);
  check "shadow hangs off the given span"
    ((find (Trace.shadow_prefix ^ "outer")).Trace.parent = outer);
  check "only the benchmark's spans, only while enabled"
    (List.map (fun s -> s.Trace.name) recorded
    = [ "w.op"; "outer"; "inner"; Trace.shadow_prefix ^ "outer" ]);
  if !failures > 0 then begin
    Printf.printf "rrbench self-tests: %d of %d failed\n" !failures !checks;
    exit 1
  end
