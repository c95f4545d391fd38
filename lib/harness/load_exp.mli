(** Latency under offered load (open-loop Poisson arrivals).

    Supports the §4 design claim that restoration off the critical path
    costs nothing "in the common case of a less than fully utilized
    server": at low utilization GH's end-to-end latency tracks BASE's; as
    the offered rate approaches the container's GH service rate (which
    includes restoration), GH's queueing delay diverges before BASE's. *)

type point = {
  rate_rps : float;
  base_mean_ms : float;
  base_p95_ms : float;
  gh_mean_ms : float;
  gh_p95_ms : float;
}

val run : Config.t -> Gh_workloads.Catalog.entry -> point list
(** Sweeps offered load on one container as fractions of its GH
    saturation rate (0.2 … 1.1). *)

val print : Format.formatter -> Gh_workloads.Catalog.entry -> point list -> unit
