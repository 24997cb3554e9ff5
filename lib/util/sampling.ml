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

(* The samplers' duplicate check: a set of pair keys [i * n + j]. *)
module Int_tbl = Hashtbl.Make (Int)

let pair_indices rng ~n ~cap =
  assert (n >= 0 && cap >= 0);
  if n < 2 || cap = 0 then [||]
  else
    let total = n * (n - 1) in
    if total <= cap then all_ordered_pairs n
    else begin
      (* Sample distinct ordered pairs by rejection over a set of
         [i * n + j]: cap is far below total in practice, so collisions
         are rare. *)
      let seen = Int_tbl.create (2 * cap) in
      let out = Array.make cap (0, 0) in
      let k = ref 0 in
      while !k < cap do
        let i = Prng.int rng n in
        let j = Prng.int rng n in
        let key = (i * n) + j in
        if i <> j && not (Int_tbl.mem seen key) then begin
          Int_tbl.add seen key ();
          out.(!k) <- (i, j);
          incr k
        end
      done;
      out
    end

let pairs_between rng ~sources ~dests ~cap =
  let ns = Array.length sources and nd = Array.length dests in
  if ns * nd <= cap then begin
    let out = ref [] in
    Array.iter
      (fun s -> Array.iter (fun d -> if s <> d then out := (s, d) :: !out) dests)
      sources;
    Array.of_list !out
  end
  else begin
    (* [s * n + d] is one key per pair for [n] above every destination. *)
    let n = 1 + Array.fold_left Int.max 0 dests in
    let seen = Int_tbl.create (2 * cap) in
    let out = ref [] and k = ref 0 and attempts = ref 0 in
    while !k < cap && !attempts < 50 * cap do
      incr attempts;
      let s = sources.(Prng.int rng ns) in
      let d = dests.(Prng.int rng nd) in
      let key = (s * n) + d in
      if s <> d && not (Int_tbl.mem seen key) then begin
        Int_tbl.add seen key ();
        out := (s, d) :: !out;
        incr k
      end
    done;
    Array.of_list !out
  end

let reservoir rng ~k a =
  let n = Array.length a in
  if k >= n then Array.copy a
  else begin
    let out = Array.sub a 0 k in
    for i = k to n - 1 do
      let j = Prng.int rng (i + 1) in
      if j < k then out.(j) <- a.(i)
    done;
    out
  end
