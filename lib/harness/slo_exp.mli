(** SLO observability sweep: the {!Cluster_exp} fleet under injected
    faults and offered-load pressure with the full observability stack
    attached — {!Gh_sim.Timeseries}, {!Gh_sim.Slo} burn-rate alerts and
    the {!Gh_sim.Flight_recorder} — measuring alert lead time against
    the replayed instant users visibly left each objective.

    Fail-closed contract (CI-gated via {!violations}, failover-on arm
    only): every breach of a gated objective (availability, latency)
    must be preceded by a fired alert, every flight-recorder dump must
    validate and cover the configured pre-failure window, and every
    span tree must close. The cold-start objective is reported but not
    gated: its 0.75 target cannot mathematically trip the workbook burn
    rates. *)

type row = {
  fault_per_min : float;
  load_factor : float;  (** Offered rate as a fraction of fleet capacity. *)
  failover : bool;
  offered : int;
  served : int;
  availability : float;
  p99_ms : float;
  alerts_fired : int;  (** Fire transitions across every objective. *)
  first_alert_ms : float;  (** Measurement start to first fire; nan if none. *)
  avail_breach_ms : float;  (** nan when availability never left objective. *)
  avail_lead_ms : float;  (** Breach minus first availability fire. *)
  latency_breach_ms : float;
      (** Sustained slow episode: slow fraction at twice the fast-page
          burn over the fast rule's long window; nan when none. *)
  latency_lead_ms : float;
  unalerted_breaches : int;  (** Gated objectives breached with no prior fire. *)
  dumps : int;  (** Flight-recorder dumps taken. *)
  dump_errors : int;  (** Schema or window-coverage failures. Must be 0. *)
  span_errors : int;  (** {!Gh_sim.Span.check} failures (failover on). *)
  series_windows : int;  (** Rolled time-series windows. *)
}

type point = { fault_per_min : float; rows : row list }

val default_fault_rates : float list
val default_load_factors : float list

val run :
  Config.t ->
  ?fault_rates:float list ->
  ?load_factors:float list ->
  ?requests:int ->
  Gh_workloads.Catalog.entry ->
  point list
(** Each (fault rate, load factor) cell runs both failover arms over the
    same seeded arrivals and fault schedule. *)

val violations : point list -> int
(** Unalerted gated breaches + invalid or window-short dumps + span
    failures, failover-on rows only. 0 is the CI gate. *)

val print : Format.formatter -> Gh_workloads.Catalog.entry -> point list -> unit

val sweep : Sweep.t
(** The `gh-bench slo` descriptor: default 160 arrivals per cell; the
    smoke grid is fault rate 0.2/min at both default loads with 120
    arrivals. *)
