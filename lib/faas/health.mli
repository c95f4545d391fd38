(** Heartbeat-driven health suspicion for one node: the
    drain → quarantine → rejoin lifecycle.

    The cluster reports one observation per heartbeat interval — {!beat}
    or {!miss} — and reads back a four-state view: [Healthy] (in
    rotation), [Draining] (suspected: no new placements, in-flight work
    finishes), [Quarantined] (presumed dead: the supervisor may restart
    it), [Rejoining] (probation: heartbeats must hold for a configured
    run before traffic returns, so a flapping node cannot oscillate).

    Pure state machine — no clocks, no events, no randomness — so every
    transition replays identically from the observation sequence. *)

type state = Healthy | Draining | Quarantined | Rejoining

val state_name : state -> string

val state_index : state -> int
(** Healthy 0, Draining 1, Quarantined 2, Rejoining 3 — the per-node
    health gauge encoding. *)

type config = {
  suspect_after : int;  (** Consecutive misses: Healthy → Draining. *)
  quarantine_after : int;  (** Consecutive misses: Draining → Quarantined. *)
  rejoin_after : int;  (** Consecutive beats: Rejoining → Healthy. *)
}

val default_config : config
(** Suspect after 2 missed beats, quarantine after 4, rejoin after 2. *)

type t

val create : config -> t
(** @raise Invalid_argument unless
    [1 <= suspect_after < quarantine_after] and [rejoin_after >= 1]. *)

val state : t -> state

val beat : t -> unit
(** A heartbeat arrived this interval. *)

val miss : t -> unit
(** No heartbeat arrived this interval. *)

val accepts_traffic : t -> bool
(** [state t = Healthy]. *)

val presumed_dead : t -> bool
(** [state t = Quarantined]. *)

val set_on_transition : t -> (state -> state -> unit) -> unit
(** Observer for gauge/trace updates; called with (previous, next). *)
