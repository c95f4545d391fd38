(** Per-node circuit breaker: closed / open / half-open.

    The cluster's dispatch path keeps one breaker per node. A run of
    [failure_threshold] consecutive attempt failures (response timeouts,
    lost dispatches) opens it; while open the node receives no traffic;
    after a capped-backoff dwell a single half-open probe is allowed
    through, and its outcome decides between closing and re-opening with
    a longer dwell. Probe dwells reuse {!Backoff.recovery} — the same
    capped schedule as container cold-restart rebuilds — so every repair
    loop in the platform saturates at the same cap.

    The breaker never schedules events and draws randomness only from an
    rng the caller supplies (dwell jitter): state moves on the timestamps
    passed in, so a fixed seed replays every transition. *)

type state = Closed | Open | Half_open

val state_name : state -> string

val state_index : state -> int
(** Closed 0, Open 1, Half_open 2 — the per-node breaker gauge encoding. *)

type config = {
  failure_threshold : int;
      (** Consecutive failures that trip the breaker. Must be >= 1. *)
  probe_backoff : Backoff.t;
      (** Dwell before the [n]-th consecutive half-open probe (attempt [n]
          of the schedule); {!default_config} shares {!Backoff.recovery}. *)
}

val default_config : config
(** Threshold 3, probes paced by {!Backoff.recovery}. *)

type t

val create : ?rng:Gh_sim.Rng.t -> config -> t
(** @raise Invalid_argument if [failure_threshold < 1]. *)

val state : t -> state

val ready : t -> now:Gh_sim.Time_ns.t -> bool
(** May this node receive a request now? Pure — commit with
    {!on_dispatch}. [true] when closed, when an open dwell has elapsed
    (the would-be probe), or when half-open with no probe in flight. *)

val on_dispatch : t -> now:Gh_sim.Time_ns.t -> unit
(** The caller routed a request here: consumes the half-open probe slot
    (transitioning Open→Half_open if the dwell elapsed). No-op when
    closed. @raise Invalid_argument if {!ready} would have said no. *)

val record_success : t -> unit
(** A response arrived: resets the failure run; a successful probe closes
    the breaker and resets the dwell schedule. *)

val record_failure : t -> now:Gh_sim.Time_ns.t -> unit
(** An attempt failed: counts toward the threshold when closed, re-opens
    with the next (longer, capped) dwell when half-open. *)

val set_on_transition : t -> (state -> state -> unit) -> unit
(** Observer for gauge/trace updates; called with (previous, next). *)
