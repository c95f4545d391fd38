(** A log-bucketed quantile sketch (DDSketch-style) with deterministic,
    order-independent merging.

    Observations land in geometric buckets whose midpoints estimate any
    contained value within relative error [alpha]; all state is integer
    counts plus an exact min/max, so {!merge} is bucket-wise integer
    addition — associative, commutative, and bit-identical however the
    stream was sharded. There is deliberately no floating-point running
    sum (float addition is order-dependent and would break exact merge
    equality under the Domain_pool discipline). *)

type t

val create : ?alpha:float -> unit -> t
(** Default relative-error bound [alpha] = 0.01.
    @raise Invalid_argument unless [0 < alpha < 1]. *)

val alpha : t -> float

val observe : t -> float -> unit
(** @raise Invalid_argument on NaN or negative values. *)

val count : t -> int
val zero_count : t -> int
(** Observations below the indexable threshold (1e-9), held exactly. *)

val is_empty : t -> bool
val min_value : t -> float option
val max_value : t -> float option

val quantile : t -> float -> float option
(** [quantile t q] estimates the value of rank [floor (q * (count - 1))]
    within relative error [alpha], clamped to the observed min/max
    (exact at [q = 0.0] and [q = 1.0]); [None] while empty.
    @raise Invalid_argument unless [0 <= q <= 1]. *)

val merge : t -> t -> t
(** A fresh sketch holding both streams. Associative, commutative, and
    {!equal}-identical across any sharding of the same observations.
    @raise Invalid_argument on an alpha mismatch. *)

val equal : t -> t -> bool
(** Structural equality of all state: counts, buckets, min/max. *)

val buckets : t -> (int * int) list
(** Nonzero (bucket index, count) pairs, sorted by index. *)

val to_json : t -> Json.t
