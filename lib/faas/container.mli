(** A function container in the discrete-event platform simulation.

    Each container runs one isolation strategy instance, pinned to one core:
    it serves one request at a time ([Busy]) and then performs the
    strategy's deferred work ([Restoring]) before becoming [Idle] again.
    Requests never reach the function process while it is restoring —
    Groundhog's buffering rule (§4.5) — which the state machine enforces
    for every strategy uniformly.

    Failures extend the state machine fail-closed: a hung request is
    detected by the engine clock reaching the per-request timeout, a failed
    restore surfaces as a [Poisoned] invocation outcome; both kill the
    function process and enter [Replacing] (cold restart: re-exec +
    warm-up + re-snapshot, paying the strategy's [init_ns] on this core,
    with capped-backoff retries if the rebuild itself fails). A container
    that fails [quarantine_after] consecutive recoveries is [Quarantined]:
    permanently retired, core and memory handed back via [on_retired] —
    never a hot loop, and never a request served from a non-clean
    process. *)

type state = Idle | Busy | Restoring | Replacing | Quarantined

type failure =
  | Timed_out of Request.t
      (** The request hung; process killed at the timeout. No response was
          produced — the owner may retry it elsewhere. *)
  | Poisoned_restore of Request.t
      (** The deferred restore (or its hash audit) failed after the
          response was already delivered. *)
  | Corrupt_snapshot of string
      (** The idle-time scrubber found a snapshot block whose content no
          longer matches its capture-time hash — detected {e before} any
          request was served from it. The payload is the corruption
          description. *)

type recovery = {
  timeout_ns : Gh_sim.Time_ns.t option;
      (** Per-request hang timeout; [None] disables detection (a hung
          request then wedges the container forever). *)
  quarantine_after : int;  (** Consecutive failures before retirement. *)
  rebuild_backoff : Backoff.t;  (** Pacing for failed rebuild retries. *)
  max_rebuild_attempts : int;
}

val default_recovery : recovery
(** 1 s timeout, quarantine after 3, {!Backoff.default}, 5 rebuild tries. *)

val passive_recovery : recovery
(** {!default_recovery} with no hang timeout and no quarantine: a hang
    wedges its container, and an owner that passes no rebuild path
    retires a poisoned one — fail closed, no replacement. *)

type scrub = {
  idle_delay : Gh_sim.Time_ns.t;
      (** Quiet time after going idle before the first slice (back-to-back
          traffic never sees a scrub). *)
  interval : Gh_sim.Time_ns.t;  (** Pacing between slices of one pass. *)
  blocks_per_slice : int;  (** Snapshot blocks hash-checked per slice. *)
}
(** Idle-time snapshot scrubbing: while the container is idle, walk its
    strategy's stored snapshot in bounded slices and compare each block
    against its capture-time hash. One pass per idle period — the pass
    stops at the end of the snapshot (so the simulation's event queue
    always drains) and a fresh pass starts the next time the container
    goes idle. Slices read memory and the engine clock only; the modelled
    hashing cost is tallied by the strategy's manager off the timeline, so
    enabling scrubbing never changes request timings. A corrupt block
    fails the container with {!Corrupt_snapshot} (kill + cold restart)
    before the snapshot can poison a restore. *)

val default_scrub : scrub
(** 5 ms idle delay, 1 ms between slices, 256 blocks (~64 MB) per slice. *)

type t

val create :
  ?obs:Gh_sim.Obs.t ->
  ?recovery:recovery ->
  ?rebuild:(unit -> (Strategy_intf.t, string) result) ->
  ?rng:Gh_sim.Rng.t ->
  ?scrub:scrub ->
  Gh_sim.Engine.t ->
  id:int ->
  Strategy_intf.t ->
  t
(** [obs] (default {!Gh_sim.Obs.none}) supplies the collectors: its
    [trace] records serve/respond/restore/idle transitions (and the
    recovery transitions); its [spans] record the request-scoped span tree
    for every invocation served here: an ["exec"] span (with cold-start,
    on-path-restore and actionloop-I/O children where the strategy reports
    them) plus the deferred ["restore"] span with one child per
    {!Groundhog_core.Breakdown} step, marked [offpath]. Emission reads the
    engine clock only — it never charges simulated time. [rebuild] builds a
    replacement strategy for the cold-restart path; without it any failure
    retires the container. [rng] jitters the rebuild backoff. [scrub]
    (default off) enables idle-time snapshot scrubbing. *)

val state : t -> state
val is_idle : t -> bool
val is_quarantined : t -> bool
val completed : t -> int

val strategy : t -> Strategy_intf.t
(** The {e current} strategy — replaced on every cold restart. *)

val replacements : t -> int

val recovery_ns : t -> Gh_sim.Time_ns.t list
(** Time from each failure detection to the container serving again
    (MTTR samples), newest first. *)

val scrubbed_blocks : t -> int
(** Snapshot blocks hash-checked by the scrubber, lifetime total. *)

val scrub_corruptions : t -> int
(** Corruptions the scrubber detected (each triggered a recovery). *)

val set_on_idle : t -> (t -> unit) -> unit
(** Called (at simulated time) whenever the container becomes idle. *)

val set_on_failure : t -> (t -> failure -> unit) -> unit
(** Called at failure detection, before recovery starts. The strategy has
    already been killed. [Corrupt_snapshot] fires from the {e idle} state:
    an owner that does core accounting must re-claim the core the idle
    transition handed back, because the recovery (and the idle transition
    that ends it) runs on it. *)

val set_on_scrub : t -> (t -> int -> unit) -> unit
(** Called after every clean scrub slice with the number of blocks it
    checked (corrupt slices surface through [set_on_failure] instead). *)

val set_on_retired : t -> (t -> unit) -> unit
(** Called when the container is quarantined: the owner must free its core
    and memory and stop routing to it. *)

val submit :
  ?dispatch_ns:Gh_sim.Time_ns.t ->
  t ->
  Request.t ->
  on_response:(Request.t -> Strategy_intf.invocation -> unit) ->
  unit
(** Start serving a request now (claiming the container immediately; the
    optional dispatch overhead delays the work). The response callback
    fires after dispatch plus on-path time — never for a hung request; the
    container goes idle only after the strategy's deferred work completes
    as well.
    @raise Invalid_argument if the container is not idle. *)
