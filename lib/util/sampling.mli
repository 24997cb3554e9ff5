(** Deterministic sampling utilities used to bound experiment cost.

    The case-study time series (Figs. 12-13 of the paper) evaluate
    all-pairs routing at every advisory tick; on a 233-PoP network that is
    too expensive to run at every tick, so experiments sample
    source-destination pairs with a fixed seed and record the cap used. *)

val pair_indices : Prng.t -> n:int -> cap:int -> (int * int) array
(** [pair_indices rng ~n ~cap] returns ordered pairs [(i, j)], [i <> j],
    drawn from [[0, n)]. When [n * (n - 1)] is at most [cap] every ordered
    pair is returned (deterministically, no RNG draws); otherwise [cap]
    pairs are sampled without replacement. *)

val pairs_between :
  Prng.t -> sources:int array -> dests:int array -> cap:int -> (int * int) array
(** [pairs_between rng ~sources ~dests ~cap] returns ordered pairs
    [(s, d)], [s <> d], with [s] from [sources] and [d] from [dests]
    (non-negative ids). When [|sources| * |dests|] is at most [cap] every
    such pair is returned, last source and destination first (no RNG
    draws); otherwise up to [cap] distinct pairs are drawn by rejection,
    most recent first, giving up after [50 * cap] draws. *)

val reservoir : Prng.t -> k:int -> 'a array -> 'a array
(** Uniform sample of [k] elements without replacement (whole array if
    shorter), preserving no particular order. *)
