(** Bounded uniform sample of a float stream (Vitter's Algorithm R).

    Long open-loop runs produce one latency sample per request; keeping
    them all is an unbounded memory leak. A reservoir keeps a fixed-size
    uniform sample instead, from which quantiles are computed.

    Determinism contract: below capacity the reservoir stores every value
    exactly, in arrival order, and consumes no randomness — quantiles are
    identical to what an unbounded list would report, and disabled-protection
    runs stay bit-identical. Past capacity, replacement decisions come from a
    private generator seeded at {!create}, so runs replay exactly. *)

type t

val create : ?seed:int -> int -> t
(** [create ?seed capacity] makes an empty reservoir holding at most
    [capacity] values. [seed] (default 0) keys the replacement stream.
    @raise Invalid_argument if [capacity <= 0]. *)

val add : t -> float -> unit

val seen : t -> int
(** Total values offered, including ones not retained. *)

val stored : t -> int
(** Values currently held: [min (seen t) capacity]. *)

val to_list : t -> float list
(** Retained values, newest-first while below capacity (the [v :: acc]
    convention of the accumulator lists this module replaces). *)
