(** Critical-path attribution over {!Span} trees.

    Walks each completed request's span tree, charges every phase its
    self time (duration minus children), and aggregates over percentile
    tail buckets of end-to-end latency — answering "which phase dominates
    the slowest requests?". Spans carrying an ["offpath"] attribute (work
    deferred past the response) are excluded with their subtrees; the
    per-request total prefers the root's ["e2e_ns"] attribute over the
    root's extent. *)

type phase = { phase_name : string; self_ns : int; share : float }

type bucket = {
  label : string;
  cutoff_ns : int;  (** Requests with e2e >= cutoff fall in the bucket. *)
  n_requests : int;
  phases : phase list;  (** Largest share first. *)
}

type report = { total_requests : int; buckets : bucket list }

val analyze : Span.t -> report
(** Buckets at p50, p90 and p99. *)

val dominating : bucket -> phase option

val pp : Format.formatter -> report -> unit
