type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed }

let copy t = { state = t.state }

(* SplitMix64 core: advance by the golden gamma, then mix. *)
let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = create (int64 t)

(* 53-bit mantissa of the raw draw, mapped to [0, 1). *)
let unit_float t =
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let float t bound =
  assert (bound > 0.0);
  unit_float t *. bound

let int t bound =
  assert (bound > 0);
  (* Rejection-free modulo is fine here: bounds are tiny versus 2^64 so
     bias is immeasurable for simulation purposes. *)
  let v = Int64.rem (int64 t) (Int64.of_int bound) in
  Int64.to_int (Int64.abs v)

let bool t = Int64.logand (int64 t) 1L = 1L

let uniform t lo hi =
  assert (hi > lo);
  lo +. (unit_float t *. (hi -. lo))

let gaussian2 t =
  (* Box-Muller; guard against log 0. *)
  let rec draw_u () =
    let u = unit_float t in
    if u <= 1e-300 then draw_u () else u
  in
  let u1 = draw_u () in
  let u2 = unit_float t in
  let r = sqrt (-2.0 *. log u1) in
  let theta = 2.0 *. Float.pi *. u2 in
  (r *. cos theta, r *. sin theta)

let gaussian t = fst (gaussian2 t)

let exponential t rate =
  assert (rate > 0.0);
  let rec draw_u () =
    let u = unit_float t in
    if u <= 1e-300 then draw_u () else u
  in
  -.log (draw_u ()) /. rate

let pareto t ~alpha ~xmin =
  assert (alpha > 0.0 && xmin > 0.0);
  let rec draw_u () =
    let u = unit_float t in
    if u <= 1e-300 then draw_u () else u
  in
  xmin /. (draw_u () ** (1.0 /. alpha))

(* Loops, not a recursive scan: a float accumulator passed as an
   argument is boxed at every step. The sums are the same left folds. *)
let categorical t weights =
  let n = Array.length weights in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. weights.(i)
  done;
  assert (!total > 0.0);
  let target = float t !total in
  let i = ref 0 and acc = ref 0.0 and found = ref false in
  while (not !found) && !i < n - 1 do
    acc := !acc +. weights.(!i);
    if target < !acc then found := true else incr i
  done;
  !i

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
