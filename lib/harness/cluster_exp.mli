(** Cluster fault-tolerance sweep: a multi-node fleet behind the
    controller under seeded node-level faults, with the management plane
    (health checks, circuit breakers, restart supervision, failover
    retries, hedging) on and off over identical request streams.

    Each nonzero fault rate combines a per-tick crash probability with
    three scheduled crashes spread across the arrival span, so every
    cell exercises real fleet damage deterministically at any seed. *)

type row = {
  rate_per_min : float;  (** Per-node crash rate, fraction per minute. *)
  placement : Gh_faas.Cluster.placement;
  failover : bool;
  offered : int;
  served : int;
  failed : int;
  availability : float;  (** served / offered. *)
  goodput_rps : float;
  p50_ms : float;
  p99_ms : float;
  failover_p99_ms : float;  (** First failure signal to winning response. *)
  retries : int;
  hedges : int;
  cancelled : int;
  crashes : int;
  hangs : int;
  restarts : int;
  timeouts : int;
  wasted : int;
  lost : int;
  double_served : int;  (** Must be 0. *)
  shed_and_served : int;  (** Must be 0. *)
  conservation_residue : int;  (** Must be 0. *)
  inflight_residue : int;  (** Must be 0 (checked with failover on). *)
}

type point = { rate_per_min : float; rows : row list }

val default_rates : float list
val default_placements : Gh_faas.Cluster.placement list

val n_nodes : int
(** Fleet size: 3 nodes of 2 cores each. *)

val warmup : Gh_sim.Time_ns.t
(** Measured arrivals start 2 s in, after the warm-up requests. *)

val response_timeout : service:Gh_sim.Time_ns.t -> Gh_sim.Time_ns.t
(** Per-attempt patience for a probed service time: [max 250 ms (6 × service)]. *)

(** A built fleet, ready to {!launch}: engine, 3-node cluster behind a
    controller sink, and the seeded measured arrivals. *)
type fleet = {
  engine : Gh_sim.Engine.t;
  cluster : Gh_faas.Cluster.t;
  controller : Gh_faas.Controller.t;
  spec : Gh_faas.Function_model.spec;
  arrivals : Gh_sim.Time_ns.t list;  (** Measured arrival instants, warm-up included. *)
  last_arrival : Gh_sim.Time_ns.t;
  horizon : Gh_sim.Time_ns.t;  (** Last heartbeat/fault tick. *)
  ttl : Gh_sim.Time_ns.t;  (** Client deadline. *)
}

val fleet :
  ?obs:Gh_sim.Obs.t ->
  Config.t ->
  Gh_faas.Function_model.spec ->
  seed:int ->
  service:Gh_sim.Time_ns.t ->
  label:string ->
  load:float ->
  min_span_s:float ->
  fault_per_min:float ->
  crashes:(int * float) list ->
  placement:Gh_faas.Cluster.placement ->
  failover:bool ->
  requests:int ->
  fleet
(** The fleet set-up shared by this sweep and {!Slo_exp}, all of it
    derived from [seed] and the probed [service] time:
    - timeouts: {!response_timeout}, a client deadline of
      [max 2 s (8 × response_timeout)], hedging at 3/4 of the timeout
      with failover on;
    - [requests] burst arrivals (stream [label ^ "-arrivals"]) at
      [min (load × capacity) (requests / min_span_s)] requests/s;
    - with [fault_per_min > 0], the node-fault plan
      ([label ^ "-plan"]): background crashes/hangs at that per-node
      rate, message loss, heartbeat drops, plus one scheduled crash per
      [(node, fraction of the arrival span)] in [crashes];
    - the cluster config, with [obs]'s collectors attached (see
      {!Gh_faas.Cluster.create}), and a controller sink enforcing the
      deadline. *)

val launch : fleet -> on_complete:(Gh_faas.Controller.completion -> unit) -> unit
(** Submit one uncounted warm-up request per core at t=0, start the
    heartbeat/fault ticks, admit the measured arrivals (ids from 1,
    alternating {!Sweep.principals}) through the controller, and run the
    engine to quiescence. *)

val measure :
  Config.t ->
  Gh_faas.Function_model.spec ->
  rate_per_min:float ->
  placement:Gh_faas.Cluster.placement ->
  failover:bool ->
  requests:int ->
  row

val violations : point list -> int
(** Delivery-contract breaches across all cells: double-serves,
    shed-and-served requests, conservation residue, dangling attempts.
    The CI gate — must be 0. *)

val gate : point list -> (unit, string) result
(** [Error] naming the count on any {!violations}; otherwise, when the
    grid has 1%/min cells, [Error] naming each failed acceptance check:
    failover-on availability below 99% or p99 above 8× the fault-free
    failover-on p99, or failover-off availability above 90%. *)

val print : Format.formatter -> Gh_workloads.Catalog.entry -> point list -> unit

val sweep : Sweep.t
(** The `gh-bench cluster` descriptor: default 200 arrivals per cell; the
    smoke grid is rates 0 and 1%/min on [Least_loaded] with 150
    arrivals. *)
