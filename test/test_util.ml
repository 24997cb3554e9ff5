open Rr_util

let check_float = Alcotest.(check (float 1e-9))

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.int64 a) (Prng.int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1L and b = Prng.create 2L in
  Alcotest.(check bool) "different seeds differ" true (Prng.int64 a <> Prng.int64 b)

let test_prng_float_range () =
  let rng = Prng.create 7L in
  for _ = 1 to 1000 do
    let v = Prng.float rng 10.0 in
    Alcotest.(check bool) "in [0, 10)" true (v >= 0.0 && v < 10.0)
  done

let test_prng_int_range () =
  let rng = Prng.create 8L in
  let seen = Array.make 6 false in
  for _ = 1 to 600 do
    let v = Prng.int rng 6 in
    Alcotest.(check bool) "in [0, 6)" true (v >= 0 && v < 6);
    seen.(v) <- true
  done;
  Alcotest.(check bool) "all values reached" true (Array.for_all Fun.id seen)

let test_prng_uniform () =
  let rng = Prng.create 9L in
  for _ = 1 to 100 do
    let v = Prng.uniform rng (-3.0) (-1.0) in
    Alcotest.(check bool) "in [-3, -1)" true (v >= -3.0 && v < -1.0)
  done

let test_prng_gaussian_moments () =
  let rng = Prng.create 10L in
  let n = 20_000 in
  let samples = Array.init n (fun _ -> Prng.gaussian rng) in
  let mean = Arrayx.fmean samples in
  let var = Arrayx.fmean (Array.map (fun x -> x *. x) samples) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.05);
  Alcotest.(check bool) "variance near 1" true (Float.abs (var -. 1.0) < 0.1)

let test_prng_exponential_mean () =
  let rng = Prng.create 11L in
  let n = 20_000 in
  let samples = Array.init n (fun _ -> Prng.exponential rng 2.0) in
  let mean = Arrayx.fmean samples in
  Alcotest.(check bool) "mean near 1/rate" true (Float.abs (mean -. 0.5) < 0.05)

let test_prng_pareto_support () =
  let rng = Prng.create 12L in
  for _ = 1 to 1000 do
    let v = Prng.pareto rng ~alpha:2.0 ~xmin:3.0 in
    Alcotest.(check bool) "at least xmin" true (v >= 3.0)
  done

let test_prng_categorical () =
  let rng = Prng.create 13L in
  let weights = [| 0.0; 5.0; 0.0; 5.0 |] in
  for _ = 1 to 500 do
    let i = Prng.categorical rng weights in
    Alcotest.(check bool) "only positive-weight indices" true (i = 1 || i = 3)
  done

let test_prng_categorical_skew () =
  let rng = Prng.create 14L in
  let weights = [| 1.0; 9.0 |] in
  let counts = [| 0; 0 |] in
  for _ = 1 to 10_000 do
    counts.(Prng.categorical rng weights) <- counts.(Prng.categorical rng weights) + 1
  done;
  Alcotest.(check bool) "index 1 dominates" true (counts.(1) > counts.(0))

(* [Prng.categorical] as it was written before it became a loop: a
   recursive scan with a float accumulator. The loop must pick the same
   index and leave the generator in the same state. *)
let reference_categorical t weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  assert (total > 0.0);
  let target = Prng.float t total in
  let n = Array.length weights in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.0

(* Weights mix zeros, small integers (exact running sums) and
   fractions, with trailing zeros and length 1. *)
let categorical_weights_gen =
  QCheck.Gen.(
    int_range 1 12 >>= fun n ->
    array_size (return n)
      (frequency
         [ (3, return 0.0); (3, map float_of_int (int_range 1 4));
           (2, float_range 0.0 2.0) ])
    >>= fun w ->
    int_range 0 3 >>= fun zeros ->
    let w = Array.append w (Array.make zeros 0.0) in
    (if Array.fold_left ( +. ) 0.0 w > 0.0 then return w
     else map (fun i -> w.(i) <- 1.0; w) (int_bound (Array.length w - 1)))
    >>= fun w -> map (fun seed -> (w, Int64.of_int seed)) nat)

let categorical_matches_reference =
  QCheck.Test.make ~name:"categorical equals the recursive scan" ~count:500
    (QCheck.make categorical_weights_gen ~print:(fun (w, seed) ->
         Printf.sprintf "seed %Ld weights [%s]" seed
           (String.concat "; " (Array.to_list (Array.map string_of_float w)))))
    (fun (w, seed) ->
      let a = Prng.create seed and b = Prng.create seed in
      let same = ref true in
      for _ = 1 to 20 do
        if Prng.categorical a w <> reference_categorical b w then same := false
      done;
      !same && Prng.int64 a = Prng.int64 b)

let test_prng_categorical_edges () =
  List.iter
    (fun w ->
      for seed = 0 to 199 do
        let a = Prng.create (Int64.of_int seed) in
        let b = Prng.create (Int64.of_int seed) in
        let i = Prng.categorical a w in
        Alcotest.(check int) "index" (reference_categorical b w) i;
        Alcotest.(check bool) "positive weight" true (w.(i) > 0.0);
        Alcotest.(check int64) "state" (Prng.int64 b) (Prng.int64 a)
      done)
    [ [| 2.5 |]; [| 0.0; 3.0 |]; [| 3.0; 0.0; 0.0 |]; [| 0.0; 1.0; 0.0; 2.0; 0.0 |] ]

(* A seed whose first draw is [x]: SplitMix64's output mixer is a
   bijection, undone step by step (each xor-shift by fixed-point
   iteration, each multiply by its odd constant's inverse mod 2^64),
   and [create] adds the golden gamma before the first mix. *)
let seed_for_first_draw x =
  let unshift y s =
    let z = ref y in
    for _ = 0 to 64 / s do
      z := Int64.logxor y (Int64.shift_right_logical !z s)
    done;
    !z
  in
  let inverse c =
    let r = ref c in
    for _ = 1 to 6 do
      r := Int64.mul !r (Int64.sub 2L (Int64.mul c !r))
    done;
    !r
  in
  let z = unshift x 31 in
  let z = unshift (Int64.mul z (inverse 0x94D049BB133111EBL)) 27 in
  let z = unshift (Int64.mul z (inverse 0xBF58476D1CE4E5B9L)) 30 in
  Int64.sub z 0x9E3779B97F4A7C15L

(* Targets that land exactly on a running sum: the scan moves past an
   index whose running sum equals the target, so a zero weight is never
   drawn and a sum that only reaches the target does not claim it. *)
let test_prng_categorical_exact_targets () =
  List.iter
    (fun (w, u, want) ->
      let x = Int64.shift_left (Int64.of_float (u *. 9007199254740992.0)) 11 in
      let seed = seed_for_first_draw x in
      Alcotest.(check int64) "crafted first draw" x (Prng.int64 (Prng.create seed));
      let label = Printf.sprintf "u = %g" u in
      Alcotest.(check int) label want (Prng.categorical (Prng.create seed) w);
      Alcotest.(check int) label want (reference_categorical (Prng.create seed) w))
    [
      ([| 1.0; 3.0 |], 0.25, 1);
      ([| 0.0; 2.0; 2.0 |], 0.0, 1);
      ([| 2.0; 0.0; 2.0 |], 0.5, 2);
      ([| 1.0; 1.0; 0.0 |], 0.5, 1);
    ]

let test_prng_split_independent () =
  let root = Prng.create 99L in
  let a = Prng.split root in
  let b = Prng.split root in
  Alcotest.(check bool) "split streams differ" true (Prng.int64 a <> Prng.int64 b)

let test_prng_shuffle_permutation () =
  let rng = Prng.create 15L in
  let a = Array.init 50 Fun.id in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

(* --- Heap --- *)

module Heap = Rr_graph.Dijkstra.Heap

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.push h k (int_of_float k)) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let order = ref [] in
  let rec drain () =
    match Heap.pop_min h with
    | None -> ()
    | Some (_, v) ->
      order := v :: !order;
      drain ()
  in
  drain ();
  Alcotest.(check (list int)) "ascending" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_heap_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.(check bool) "pop on empty" true (Heap.pop_min h = None)

let test_heap_clear () =
  let h = Heap.create () in
  Heap.push h 1.0 1;
  Heap.clear h;
  Alcotest.(check int) "cleared" 0 (Heap.length h)

let test_heap_ensure_capacity () =
  let h = Heap.create () in
  Heap.push h 2.0 20;
  Heap.push h 1.0 10;
  Heap.ensure_capacity h 1024;
  (* Growth must preserve contents... *)
  (match Heap.pop_min h with
  | Some (k, 10) -> check_float "min survives growth" 1.0 k
  | _ -> Alcotest.fail "expected 10 first");
  Alcotest.(check int) "one left" 1 (Heap.length h);
  (* ...and the clear + ensure_capacity reuse cycle must not shrink or
     lose ordering. *)
  Heap.clear h;
  Heap.ensure_capacity h 8;
  for i = 99 downto 0 do
    Heap.push h (float_of_int i) i
  done;
  (match Heap.pop_min h with
  | Some (_, 0) -> ()
  | _ -> Alcotest.fail "expected 0 first after reuse");
  Alcotest.(check int) "rest retained" 99 (Heap.length h)

let test_heap_duplicate_keys () =
  let h = Heap.create () in
  Heap.push h 1.0 1;
  Heap.push h 1.0 2;
  Heap.push h 0.5 3;
  (match Heap.pop_min h with
  | Some (k, 3) -> check_float "min key" 0.5 k
  | _ -> Alcotest.fail "expected 3 first");
  Alcotest.(check int) "two left" 2 (Heap.length h)

let heap_sort_property =
  QCheck.Test.make ~name:"heap pops keys in ascending order" ~count:200
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h k i) keys;
      let rec drain acc =
        match Heap.pop_min h with None -> List.rev acc | Some (k, _) -> drain (k :: acc)
      in
      let out = drain [] in
      out = List.sort Float.compare keys)

(* --- Arrayx / Listx --- *)

let test_fsum_kahan () =
  let a = Array.make 10_000 0.1 in
  check_float "compensated" 1000.0 (Arrayx.fsum a)

let test_argmin_argmax () =
  let a = [| 3.0; 1.0; 4.0; 1.0; 5.0 |] in
  Alcotest.(check int) "argmin first tie" 1 (Arrayx.argmin a);
  Alcotest.(check int) "argmax" 4 (Arrayx.argmax a)

let test_normalize () =
  let a = Arrayx.normalize [| 1.0; 3.0 |] in
  check_float "first" 0.25 a.(0);
  check_float "second" 0.75 a.(1)

let test_take () =
  Alcotest.(check (array int)) "prefix" [| 1; 2 |] (Arrayx.take 2 [| 1; 2; 3 |]);
  Alcotest.(check (array int)) "whole" [| 1; 2 |] (Arrayx.take 5 [| 1; 2 |])

let test_listx_range () =
  Alcotest.(check (list int)) "range" [ 2; 3; 4 ] (Listx.range 2 5);
  Alcotest.(check (list int)) "empty" [] (Listx.range 5 5)

let test_listx_pairs () =
  Alcotest.(check int) "C(4,2)" 6 (List.length (Listx.pairs [ 1; 2; 3; 4 ]))

let test_listx_group_by () =
  let groups = Listx.group_by (fun x -> x mod 2) [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check int) "two groups" 2 (List.length groups);
  Alcotest.(check (list int)) "odds in order" [ 1; 3; 5 ] (List.assoc 1 groups)

let test_listx_min_max_by () =
  Alcotest.(check (option int)) "min" (Some 3)
    (Listx.min_by float_of_int [ 5; 3; 9 ]);
  Alcotest.(check (option int)) "max" (Some 9)
    (Listx.max_by float_of_int [ 5; 3; 9 ]);
  Alcotest.(check (option int)) "empty" None (Listx.min_by float_of_int [])

(* --- Sampling --- *)

let test_pair_indices_exhaustive () =
  let rng = Prng.create 1L in
  let pairs = Sampling.pair_indices rng ~n:4 ~cap:100 in
  Alcotest.(check int) "all ordered pairs" 12 (Array.length pairs);
  Array.iter (fun (i, j) -> Alcotest.(check bool) "distinct" true (i <> j)) pairs

let test_pair_indices_capped () =
  let rng = Prng.create 2L in
  let pairs = Sampling.pair_indices rng ~n:50 ~cap:100 in
  Alcotest.(check int) "capped" 100 (Array.length pairs);
  let seen = Hashtbl.create 128 in
  Array.iter
    (fun p ->
      Alcotest.(check bool) "no duplicates" false (Hashtbl.mem seen p);
      Hashtbl.add seen p ())
    pairs

let test_pair_indices_degenerate () =
  let rng = Prng.create 3L in
  Alcotest.(check int) "n=1" 0 (Array.length (Sampling.pair_indices rng ~n:1 ~cap:10));
  Alcotest.(check int) "cap=0" 0 (Array.length (Sampling.pair_indices rng ~n:5 ~cap:0))

let test_reservoir () =
  let rng = Prng.create 4L in
  let a = Array.init 100 Fun.id in
  let s = Sampling.reservoir rng ~k:10 a in
  Alcotest.(check int) "size" 10 (Array.length s);
  Array.iter (fun v -> Alcotest.(check bool) "from source" true (v >= 0 && v < 100)) s;
  let all = Sampling.reservoir rng ~k:200 a in
  Alcotest.(check int) "whole array when k >= n" 100 (Array.length all)

(* The two pair samplers as they were with a polymorphic [Hashtbl]
   keyed by [(i, j)] / [(s, d)] as the duplicate check, copied
   literally: [pair_indices] and the sampler inlined in
   [Ratios.between]. The versions keyed by [i * n + j] must make the
   same draws and return the same pairs. *)
module Hashtbl_samplers = struct
  let all_ordered_pairs n =
    let out = Array.make (n * (n - 1)) (0, 0) in
    let k = ref 0 in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then begin
          out.(!k) <- (i, j);
          incr k
        end
      done
    done;
    out

  let pair_indices rng ~n ~cap =
    assert (n >= 0 && cap >= 0);
    if n < 2 || cap = 0 then [||]
    else
      let total = n * (n - 1) in
      if total <= cap then all_ordered_pairs n
      else begin
        let seen = Hashtbl.create (2 * cap) in
        let out = Array.make cap (0, 0) in
        let k = ref 0 in
        while !k < cap do
          let i = Prng.int rng n in
          let j = Prng.int rng n in
          if i <> j && not (Hashtbl.mem seen (i, j)) then begin
            Hashtbl.add seen (i, j) ();
            out.(!k) <- (i, j);
            incr k
          end
        done;
        out
      end

  let between_pairs ~pair_cap ~seed ~sources ~dests =
    let ns = Array.length sources and nd = Array.length dests in
    let total = ns * nd in
    if total <= pair_cap then begin
      let out = ref [] in
      Array.iter
        (fun s -> Array.iter (fun d -> if s <> d then out := (s, d) :: !out) dests)
        sources;
      Array.of_list !out
    end
    else begin
      let rng = Prng.create seed in
      let seen = Hashtbl.create (2 * pair_cap) in
      let out = ref [] and k = ref 0 and attempts = ref 0 in
      while !k < pair_cap && !attempts < 50 * pair_cap do
        incr attempts;
        let s = sources.(Prng.int rng ns) in
        let d = dests.(Prng.int rng nd) in
        if s <> d && not (Hashtbl.mem seen (s, d)) then begin
          Hashtbl.add seen (s, d) ();
          out := (s, d) :: !out;
          incr k
        end
      done;
      Array.of_list !out
    end
end

let pair_indices_matches_hashtbl =
  QCheck.Test.make ~name:"pair_indices equals the Hashtbl sampler" ~count:300
    QCheck.(
      triple (int_range 0 400)
        (oneof [ int_range 0 50; int_range 0 7000 ])
        int)
    (fun (n, cap, seed) ->
      let a = Prng.create (Int64.of_int seed)
      and b = Prng.create (Int64.of_int seed) in
      Sampling.pair_indices a ~n ~cap = Hashtbl_samplers.pair_indices b ~n ~cap
      (* the same number of draws *)
      && Prng.int64 a = Prng.int64 b)

(* Ids may repeat within a side and sides may overlap, as PoP subsets
   of one network do; small id ranges make the rejection cap bind. *)
let pairs_between_matches_hashtbl =
  QCheck.Test.make ~name:"pairs_between equals the Hashtbl sampler" ~count:300
    QCheck.(
      quad (int_range 1 300)
        (pair (int_range 0 60) (int_range 0 60))
        (int_range 0 3000) int)
    (fun (ids, (ns, nd), pair_cap, seed) ->
      let side k r = Array.init k (fun _ -> Prng.int r ids) in
      let r = Prng.create (Int64.of_int (seed + 1)) in
      let sources = side ns r and dests = side nd r in
      let seed = Int64.of_int seed in
      Sampling.pairs_between (Prng.create seed) ~sources ~dests ~cap:pair_cap
      = Hashtbl_samplers.between_pairs ~pair_cap ~seed ~sources ~dests)

(* --- Float_text --- *)

(* [Float_text] against its definition, [Printf.sprintf "%.17g"]:
   random bit patterns (mostly the fallback), a log-uniform sweep over
   and past the fast range with each value's neighbours, powers of ten,
   exact ties at 17 digits, and the special values. *)
let test_g17_differential () =
  let checked = ref 0 and bad = ref 0 and shown = ref [] in
  let check x =
    incr checked;
    let want = Printf.sprintf "%.17g" x and got = Float_text.g17 x in
    if got <> want then begin
      incr bad;
      if !bad <= 10 then
        shown := Printf.sprintf "%h: g17 %s, Printf %s" x got want :: !shown
    end
  in
  let around x =
    List.iter
      (fun x -> check x; check (-.x))
      [ x; Float.pred x; Float.succ x ]
  in
  let rng = Prng.create 0x6717L in
  let finite = ref 0 in
  while !finite < 2_000_000 do
    let x = Int64.float_of_bits (Prng.int64 rng) in
    if Float.is_finite x then begin
      incr finite;
      check x
    end
  done;
  for _ = 1 to 200_000 do
    around (10.0 ** Prng.uniform rng (-8.0) 19.0)
  done;
  for j = -8 to 18 do
    around (float_of_string (Printf.sprintf "1e%d" j))
  done;
  around 1e-6;
  around 1e17;
  (* n + f for an (18 - j)-digit n and f an odd multiple of 2^-j has 18
     significant digits ending in 5: an exact tie at 17. j = 2 is the
     16-digit n + 0.25 / 0.75; 0.5 is exact at 17 digits. *)
  for j = 2 to 10 do
    let lo = int_of_float (10.0 ** float_of_int (17 - j)) in
    let den = 1 lsl j in
    for _ = 1 to 10_000 do
      let n = lo + Prng.int rng (9 * lo) in
      List.iter
        (fun num ->
          let f = float_of_int num /. float_of_int den in
          let x = float_of_int n +. f in
          if x -. float_of_int n = f then around x)
        [ 1 + (2 * Prng.int rng (den / 2)); den / 2 ]
    done
  done;
  List.iter around [ 0.0; max_float; Float.min_float; 4.9e-324 ];
  for _ = 1 to 10_000 do
    check
      (Int64.float_of_bits
         (Int64.logand (Prng.int64 rng) 0x800F_FFFF_FFFF_FFFFL))
  done;
  List.iter check [ -0.0; infinity; neg_infinity; nan; -.nan ];
  Alcotest.(check (list string))
    (Printf.sprintf "mismatches of %d doubles" !checked)
    [] (List.rev !shown);
  Alcotest.(check int) "mismatch count" 0 !bad

let () =
  Alcotest.run "rr_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "uniform range" `Quick test_prng_uniform;
          Alcotest.test_case "gaussian moments" `Quick test_prng_gaussian_moments;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          Alcotest.test_case "pareto support" `Quick test_prng_pareto_support;
          Alcotest.test_case "categorical support" `Quick test_prng_categorical;
          Alcotest.test_case "categorical skew" `Quick test_prng_categorical_skew;
          Alcotest.test_case "categorical edge weights" `Quick
            test_prng_categorical_edges;
          Alcotest.test_case "categorical exact targets" `Quick
            test_prng_categorical_exact_targets;
          QCheck_alcotest.to_alcotest categorical_matches_reference;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "ensure capacity" `Quick test_heap_ensure_capacity;
          Alcotest.test_case "duplicate keys" `Quick test_heap_duplicate_keys;
          QCheck_alcotest.to_alcotest heap_sort_property;
        ] );
      ( "arrayx-listx",
        [
          Alcotest.test_case "fsum kahan" `Quick test_fsum_kahan;
          Alcotest.test_case "argmin/argmax" `Quick test_argmin_argmax;
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "take" `Quick test_take;
          Alcotest.test_case "range" `Quick test_listx_range;
          Alcotest.test_case "pairs" `Quick test_listx_pairs;
          Alcotest.test_case "group_by" `Quick test_listx_group_by;
          Alcotest.test_case "min_by/max_by" `Quick test_listx_min_max_by;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "exhaustive pairs" `Quick test_pair_indices_exhaustive;
          Alcotest.test_case "capped pairs" `Quick test_pair_indices_capped;
          Alcotest.test_case "degenerate" `Quick test_pair_indices_degenerate;
          Alcotest.test_case "reservoir" `Quick test_reservoir;
          QCheck_alcotest.to_alcotest pair_indices_matches_hashtbl;
          QCheck_alcotest.to_alcotest pairs_between_matches_hashtbl;
        ] );
      ( "float_text",
        [
          Alcotest.test_case "g17 = Printf %.17g" `Slow test_g17_differential;
        ] );
    ]
