(** Content-addressed keys for the engine's artifact caches.

    A fingerprint is the MD5 hex digest of a canonical byte encoding of
    the value: floats are serialised via their IEEE-754 bit patterns, so
    two values collide only when they would produce bitwise-identical
    derived artifacts. The encodings are length-prefixed throughout, so
    concatenated fields cannot alias each other. *)

type t = string
(** 32-char lowercase hex digest. *)

val params : Riskroute.Params.t -> t
(** All five parameter fields. *)

val advisory : Rr_forecast.Advisory.t option -> t
(** Storm name, advisory number, issue time, centre, both wind radii;
    [None] has its own distinguished digest. *)

val net : Rr_topology.Net.t -> t
(** Name, tier, state footprint, PoP coordinates, and edge list — the
    inputs that determine an {!Riskroute.Env} up to params/advisory. *)

val geometry :
  n:int -> off:int array -> tgt:int array -> miles:float array -> t
(** Raw-CSR form of {!env_geometry}: an {!Riskroute.Env} whose CSR
    equals these arrays digests identically, so tree-cache keys unify
    whether the geometry came from an environment or was built
    directly ({!Riskroute.Env.csr_arcs} without the risk vectors). *)

val env_geometry : Riskroute.Env.t -> t
(** Node count, CSR offsets/targets and per-arc miles — everything a
    pure-distance shortest-path tree depends on. Environments derived
    via [with_advisory] / [with_params] share this fingerprint. *)

val env_risk : Riskroute.Env.t -> t
(** {!env_geometry} plus per-arc risk terms and the mean-impact kappa —
    everything a risk-weighted shortest-path tree depends on. *)

val risk_delta : parent:t -> indices:int array -> values:float array -> t
(** Chained risk fingerprint for a patched environment
    ([Riskroute.Env.patch]): the parent's risk fingerprint plus the
    sparse forecast delta that produced the child. Injective on content
    (the parent fingerprint pins the base vectors, the delta pins every
    change) at O(changed) hashing cost instead of {!env_risk}'s
    O(arcs). *)

val combine : t list -> t
(** Digest of the (length-prefixed) concatenation — a composite key. *)
