(** Deterministic, splittable pseudo-random number generator.

    The whole simulator is reproducible from a single root seed: every
    component that needs randomness receives its own generator obtained via
    {!split}, so adding or removing a consumer never perturbs the random
    streams of the others (the classic splittable-PRNG discipline).

    The underlying generator is SplitMix64 (Steele, Lea, Flood; also the
    seeding generator of xoshiro). *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from [seed]. Equal seeds give
    equal streams. *)

val split : t -> t
(** [split t] derives an independent generator. Advances [t] by one step. *)

val named_split : t -> string -> t
(** [named_split t name] derives an independent generator keyed by [name],
    without advancing [t]. Useful to hand stable streams to a dynamic set
    of consumers. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive).
    Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal deviate via Box–Muller. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** [exp] of a {!gaussian} deviate; handy for latency noise. *)

val exponential : t -> mean:float -> float
(** Exponential deviate with the given mean. Requires [mean > 0]. *)
