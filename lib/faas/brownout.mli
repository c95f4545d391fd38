(** Node-level brownout (graceful-degradation) controller.

    Tracks queueing delay against a target and moves through three levels,
    escalating after [escalate_after] consecutive over-target samples and
    recovering hysteretically after [recover_after] consecutive samples
    under [hysteresis * target] (a Schmitt trigger, so the level doesn't
    flap at the boundary). Deterministic: the trajectory is a pure function
    of the observed delays. *)

type level =
  | Normal  (** Full service. *)
  | Degraded
      (** Defer incremental re-snapshotting off the critical path; prefer
          warm containers over cold starts. *)
  | Shedding  (** Additionally drop arrivals below the priority floor. *)

val level_name : level -> string

type config = {
  target_delay_ns : Gh_sim.Time_ns.t;  (** Queueing-delay target. *)
  escalate_after : int;  (** Consecutive breaches before escalating. *)
  recover_after : int;  (** Consecutive clean samples before recovering. *)
  hysteresis : float;
      (** Recovery threshold as a fraction of the target, in (0, 1]. *)
  shed_below_priority : int;
      (** At [Shedding], arrivals with [Principal.priority < this] drop. *)
}

type t

val create : ?trace:Gh_sim.Trace.t -> config -> t
(** With [trace], level changes emit ["brownout"] escalate/recover
    events (timestamped by {!observe}'s [?at]).
    @raise Invalid_argument on a non-sensical config. *)

val observe : ?at:Gh_sim.Time_ns.t -> t -> Gh_sim.Time_ns.t -> bool
(** [observe t delay_ns] feeds one queueing-delay sample (taken at
    dispatch); returns [true] iff the level changed. [at] only timestamps
    the trace event (default 0). *)

val level : t -> level
val config : t -> config

val should_shed : t -> Principal.t -> bool
(** Is this principal's arrival dropped at the current level? *)

val defer_restores : t -> bool
(** Should strategies defer post-completion restore work? True at any
    level above [Normal]. *)

val suppress_cold_starts : t -> bool
(** Should pools with at least one live container avoid cold-starting
    more? True at any level above [Normal]. *)

val escalations : t -> int
