(* Order statistics and failure accounting for the benchmark's results.
   Pure functions over float arrays, so the self-tests can pin them on
   fixed samples. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of percentile [p] (0 < p <= 1) among [n]
   samples: the smallest rank whose cumulative share reaches [p]. The
   epsilon keeps p = 0.9, n = 100 at rank 90 despite 0.9 *. 100.
   reading 90.00000000000001. *)
let rank ~n p =
  if n < 1 then invalid_arg "Stats.rank: no samples";
  if not (p > 0.0 && p <= 1.0) then invalid_arg "Stats.rank: p outside (0, 1]";
  max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))))

(* Nearest-rank percentile of an already sorted array. *)
let percentile sorted_xs p =
  sorted_xs.(rank ~n:(Array.length sorted_xs) p - 1)

(* Samples strictly above the percentile's rank. *)
let beyond ~n p = n - rank ~n p

(* Samples a tail percentile must leave beyond it. *)
let min_beyond = 10

(* The highest of [candidates] that leaves at least [min_beyond] samples
   beyond it among [n] — how a tail percentile is chosen for a fixed run
   length. [None] when even the lowest candidate leaves too few. *)
let tail_percentile ~n candidates =
  List.fold_left
    (fun best p ->
      if n >= 1 && beyond ~n p >= min_beyond then
        match best with Some b when b >= p -> best | _ -> Some p
      else best)
    None candidates

let median xs =
  let s = sorted xs in
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* The run's median op latency, taken per op key. Every round of a run
   replays the same ops, so each key (a tick, a query pair, a network)
   has one sample per round. A key's latency is the mean of its
   samples, and the result is the median of those over the keys. A GC
   pause or a preemption in one repeat of a cheap op is spread over its
   repeats, so it cannot move the median across the boundary into a
   costly op class. A mean also moves in proportion to the share of a
   run the VM spent in a slow stretch, where a median flips between the
   fast and the slow value. *)
let keyed_p50 (samples : (int * float) list) =
  let by_key = Hashtbl.create 256 in
  List.iter
    (fun (k, x) ->
      Hashtbl.replace by_key k
        (x :: Option.value (Hashtbl.find_opt by_key k) ~default:[]))
    samples;
  median
    (Array.of_seq
       (Seq.map
          (fun xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs))
          (Hashtbl.to_seq_values by_key)))

(* Quartiles exactly as Python's [statistics.quantiles (xs, n=4)]
   (method "exclusive") computes them, the convention steady.py uses
   for run-to-run spreads. *)
let quartiles xs =
  let s = sorted xs in
  let ld = Array.length s in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)

(* Op outcome accounting. Ops repeat (every storm pass replays the same
   ticks, every plan cycle the same networks), so each distinct output
   is kept once per input key with a count and judged against the
   reference once, after the timed phase. An op that raised and an op
   whose output disagrees with the reference both count as failed. *)
type 'a outcomes = {
  mutable attempted : int;
  mutable raised : int;
  seen : (int, ('a * int ref) list) Hashtbl.t;
}

let outcomes () = { attempted = 0; raised = 0; seen = Hashtbl.create 64 }

let observe o ~key v =
  o.attempted <- o.attempted + 1;
  let known = Option.value (Hashtbl.find_opt o.seen key) ~default:[] in
  match List.find_opt (fun (w, _) -> compare w v = 0) known with
  | Some (_, count) -> incr count
  | None -> Hashtbl.replace o.seen key ((v, ref 1) :: known)

let raised o =
  o.attempted <- o.attempted + 1;
  o.raised <- o.raised + 1

(* Failed ops once every distinct output has been judged by [ok]. *)
let failed o ~ok =
  Hashtbl.fold
    (fun key outs acc ->
      List.fold_left
        (fun acc (v, count) -> if ok key v then acc else acc + !count)
        acc outs)
    o.seen o.raised

let fail_ratio ~attempted ~failed =
  if attempted < 1 then invalid_arg "Stats.fail_ratio: no ops attempted";
  float_of_int failed /. float_of_int attempted

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
