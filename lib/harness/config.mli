(** Experiment configuration: how many invocations each measurement uses.

    The paper averages 1,200 invocations (90 for C functions longer than
    10 s); the default profile scales those down so the full suite
    regenerates in minutes, and [full] restores paper-sized runs. Request
    counts per benchmark adapt to its duration so that simulating a 196 s
    PolyBench kernel doesn't take 1,200 iterations. *)

type t = {
  seed : int;
  latency_requests : int;  (** Fast benchmarks (≤ 1 s). *)
  latency_requests_medium : int;  (** 1–10 s benchmarks. *)
  latency_requests_long : int;  (** > 10 s benchmarks. *)
  tput_requests : int;  (** Saturation measurement length. *)
  microbench_requests : int;  (** Per Fig. 3 sweep point. *)
  breakdown_requests : int;  (** Restores averaged for Fig. 8. *)
  n_containers : int;  (** Throughput containers (= cores). *)
  dispatch_ns : Gh_sim.Time_ns.t;  (** Invoker dispatch overhead. *)
  spans : Gh_sim.Span.t option;
      (** Span collector attached to every deployment the experiments
          build; [None] (default) disables request tracing. Sim-time
          neutral either way. *)
  metrics : Gh_sim.Metrics.t option;
      (** Shared metrics registry for node-based experiments; [None]
          (default) gives each node a private registry. *)
  series : Gh_sim.Timeseries.t option;
      (** Windowed time-series collector threaded into every deployment
          the experiments build; [None] (default) disables collection. *)
  slos : Gh_sim.Slo.t list;
      (** Burn-rate objectives evaluated at every front door; [[]]
          (default) disables SLO evaluation. *)
  jobs : int;
      (** Domains to fan sweep cells across ({!Gh_sim.Domain_pool}).
          1 (default) keeps every sweep serial; any value produces
          byte-identical report output because each cell derives its RNG
          from the seed and the cell's identity, never from run order. *)
}

val default : t
val full : t
(** Paper-sized request counts (slow; use for final numbers). *)

val quick : t
(** Minimal counts for CI smoke runs. *)

val effective_jobs : t -> int
(** [jobs], clamped to 1 when any observability collector (spans,
    metrics, series, SLOs) is attached: the collectors are shared mutable
    state, so instrumented runs serialize rather than lock every record
    call. *)

val obs : t -> Gh_sim.Obs.t
(** The collectors above as one {!Gh_sim.Obs.t}, for the experiments that
    build a node themselves. *)

val latency_requests_for : t -> Gh_faas.Function_model.spec -> int
(** Adaptive request count by benchmark duration. *)

val tput_requests_for : t -> Gh_faas.Function_model.spec -> int
