(** Overload-protection sweep: open-loop bursty arrivals at multiples of
    each strategy's measured capacity, with the platform's protection stack
    (deadlines + bounded EDF admission + brownout) on and off over the same
    deterministic arrival stream.

    Reports goodput (completions within deadline), shed/expired/failed
    counts, deadline-miss rate, and p50/p99 latency per utilization point,
    and cross-checks the overload contract: no request served by a
    non-clean process, no cross-principal residue from an isolating
    strategy, no shed request that consumed work, no late completion the
    node failed to count. *)

type row = {
  strategy : Gh_isolation.Registry.id;
  protected : bool;
  util : float;  (** Offered load as a multiple of measured capacity. *)
  offered : int;
  offered_rps : float;
  completed : int;
  goodput : int;  (** Completed within the deadline budget. *)
  goodput_rps : float;
  shed : int;
  expired : int;
  failed : int;
  deadline_misses : int;  (** Late completions, as counted by the node. *)
  miss_rate : float;  (** Late completions / completions. *)
  p50_ms : float;
  p99_ms : float;
  queue_high_water : int;
  cold_starts : int;
  brownout_escalations : int;
  unsafe_served : int;  (** Dispatches to a non-clean process. Must be 0. *)
  leaked_words : int;  (** Foreign residue served by an isolating strategy. Must be 0. *)
  shed_served : int;  (** Shed requests that still consumed work. Must be 0. *)
  late_uncounted : int;  (** Late completions the node failed to count. Must be 0. *)
}

type point = { util : float; rows : row list }

val default_strategies : Gh_isolation.Registry.id list
(** [Base; Gh]. *)

val default_utils : float list
(** [0.5; 0.8; 1.1; 1.5; 2.0]. *)

val run :
  Config.t ->
  ?strategies:Gh_isolation.Registry.id list ->
  ?utils:float list ->
  ?requests:int ->
  Gh_workloads.Catalog.entry ->
  point list
(** One protected + one unprotected measurement per (strategy, util), both
    over the identical arrival stream (keyed by seed, strategy, util).
    [requests] (default 240) arrivals per measurement. Strategies the spec
    does not support are skipped. Fully deterministic — including every
    shed decision — per [cfg.seed]. *)

val violations : point list -> int
(** Sum of all invariant breaches ([unsafe_served] + [leaked_words] +
    [shed_served] + [late_uncounted]) across the sweep; the CI gate
    requires 0. *)

val print : Format.formatter -> Gh_workloads.Catalog.entry -> point list -> unit

val sweep : Sweep.t
(** The `gh-bench overload` descriptor: default 240 arrivals per cell;
    the smoke grid is utilizations 0.8 and 1.6 with 90 arrivals. *)
