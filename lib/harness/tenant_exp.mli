(** Multi-tenant node experiment: what request isolation costs in container
    {e density}, not just cycles.

    Several functions share one invoker node with a fixed core count and
    memory budget; containers cold-start on demand and are evicted when
    idle. An eager Groundhog manager pins a snapshot buffer the size of the
    function's footprint, so fewer containers fit and more requests eat
    cold starts or queueing; the incremental snapshot mode (§5.5) keeps
    Groundhog's isolation at near-BASE density. *)

type mode = Base | Gh_eager | Gh_incremental

type result = {
  memory_mb : int;
  mode : mode;
  completed : int;
  cold_starts : int;
  evictions : int;
  mean_e2e_ms : float;
  p95_e2e_ms : float;
  high_water_mb : int;
  shed : int;  (** Dropped by admission control or brownout, never served. *)
  expired : int;  (** Dropped because their deadline passed, never served. *)
  leftover_queue : int;  (** Requests still queued when the run ended. *)
}

val run :
  Config.t ->
  ?memory_budgets_mb:int list ->
  ?duration_s:float ->
  ?rate_rps:float ->
  Gh_workloads.Catalog.entry list ->
  result list
(** Drive identical Poisson arrival sequences at [rate_rps] per function
    for [duration_s] of simulated time, for each (memory budget × mode)
    combination. Default budgets: generous, tight, and starving. *)

val default_functions : string list
val print : Format.formatter -> result list -> unit
