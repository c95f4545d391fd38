(** Sample statistics for experiment measurements.

    Two entry points: an online accumulator ({!Online}) for streaming
    mean/variance, and whole-sample summaries ({!summary}) with exact
    percentiles, used by the harness to report the same statistics as the
    paper (mean ± std, median, p10/p25/p75/p90/p95). *)

type summary = {
  n : int;
  mean : float;
  std : float;  (** Sample (Bessel-corrected) standard deviation. *)
  min : float;
  max : float;
  p10 : float;
  p25 : float;
  median : float;
  p75 : float;
  p90 : float;
  p95 : float;
  p99 : float;
}

val summarize : float array -> summary
(** Exact summary of a non-empty sample. Sorts a copy of the input with
    [Float.compare] (total, deterministic order).
    @raise Invalid_argument on an empty array, or if the sample contains a
    NaN — there is no meaningful rank for NaN, so it is rejected rather
    than silently sorted to one end. *)

val percentile : float array -> float -> float
(** [percentile sorted q] with [q] in [\[0,100\]] over a {e sorted,
    NaN-free} array, using linear interpolation between closest ranks.
    ({!summarize} enforces the NaN-free precondition for its callers.) *)

val mean : float array -> float
val std : float array -> float

val pp_summary : Format.formatter -> summary -> unit

module Online : sig
  (** Welford's online mean/variance accumulator. *)

  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val std : t -> float
end
