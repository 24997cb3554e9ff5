(* Test graphs weigh an edge by its endpoint pair; the Dijkstra kernel
   weighs an arc by its CSR index. *)

(* Source node of every arc of a CSR snapshot. *)
let sources off =
  let src_of = Array.make off.(Array.length off - 1) 0 in
  for u = 0 to Array.length off - 2 do
    for k = off.(u) to off.(u + 1) - 1 do
      src_of.(k) <- u
    done
  done;
  src_of

(* [g]'s CSR with a pair-indexed weight read per arc. *)
let lift g weight =
  let off, tgt = Rr_graph.Graph.to_csr g in
  let src_of = sources off in
  (off, tgt, fun k -> weight src_of.(k) tgt.(k))
