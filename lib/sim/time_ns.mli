(** Simulated time, in integer nanoseconds.

    All durations and instants in the simulator are expressed in [ns].
    OCaml's native [int] gives 62 bits, i.e. ~146 years of simulated time,
    which is ample for any experiment in this repository. *)

type t = int
(** A duration or an instant, in nanoseconds. *)

val zero : t

val of_us : float -> t
(** [of_us x] is [x] microseconds as nanoseconds (rounded). *)

val of_ms : float -> t
(** [of_ms x] is [x] milliseconds as nanoseconds (rounded). *)

val of_sec : float -> t
(** [of_sec x] is [x] seconds as nanoseconds (rounded). *)

val to_us : t -> float
val to_ms : t -> float
val to_sec : t -> float

val pp : Format.formatter -> t -> unit
(** Human-friendly printer choosing ns/us/ms/s units. *)
