(** The invoker: the platform component that hosts containers on one VM and
    dispatches requests to them (§5.1's deployment isolates it on its own
    VM; Groundhog lives inside its containers).

    One container per core, as in the paper's throughput setup. Requests
    queue through an unbounded FIFO {!Admission} buffer when every
    container is busy or restoring. Requests whose deadline has already
    passed are rejected at submit and purged at every dequeue.

    With [recovery] enabled the invoker drives the fail-closed pipeline:
    hung requests are killed at the container timeout and retried under
    capped exponential backoff (up to [max_attempts] tries, then reported
    failed), poisoned containers are cold-restarted off the critical path,
    and containers that keep failing are quarantined — their core is lost
    but never hot-looped. *)

type recovery = {
  container : Container.recovery;
  max_attempts : int;  (** Total tries per request (1 = no retry). *)
  retry_backoff : Backoff.t;  (** Pacing between retries of one request. *)
}

type recovery_stats = {
  timeouts : int;  (** Hang timeouts fired. *)
  retries : int;  (** Requests re-submitted after a timeout. *)
  failed_requests : int;  (** Requests abandoned after [max_attempts]. *)
  quarantined : int;  (** Containers permanently retired. *)
  replacements : int;  (** Successful cold restarts. *)
  mttr_ns : Gh_sim.Time_ns.t list;  (** Failure-to-serving-again samples. *)
}

type t

val create :
  ?obs:Gh_sim.Obs.t ->
  ?recovery:recovery ->
  ?rng:Gh_sim.Rng.t ->
  ?scrub:Container.scrub ->
  Gh_sim.Engine.t ->
  n_containers:int ->
  dispatch_ns:Gh_sim.Time_ns.t ->
  make_strategy:(int -> Strategy_intf.t) ->
  t
(** [make_strategy i] builds container [i]'s strategy (its own process);
    with [recovery] it is also the cold-restart rebuild path (a [Failure]
    it raises becomes a failed rebuild attempt, retried under backoff).
    Containers start warm; wrap [make_strategy]'s result in
    {!with_cold_start} to model container cold starts. [rng] jitters the
    backoff delays; omit it for fully deterministic pacing. Without
    [recovery], hangs wedge their container and poisoned
    containers are retired (fail closed, no replacement). [scrub] enables
    idle-time snapshot scrubbing in every container (see
    {!Container.scrub}); a corruption it finds recovers the container
    through the same pipeline, before any request is served from the bad
    snapshot. [obs] (default {!Gh_sim.Obs.none}) is shared with
    every container and the admission queue: its [trace] records their
    transitions, and its [spans] record request-scoped spans — a root per
    request, an ["invoker-queue"] phase while queued, and the containers'
    exec/restore trees; shed and abandoned requests get their root closed
    here with an ["outcome"] attribute. *)

val submit :
  t -> Request.t -> on_response:(Request.t -> Strategy_intf.invocation -> unit) -> unit
(** Dispatch to an idle container (after the dispatch overhead) or queue. *)

val with_cold_start : Strategy_intf.t -> Strategy_intf.t
(** Wrap a strategy so its one-time initialization lands on its first
    request's critical path (used by cold-started containers). *)

val set_on_failed : t -> (Request.t -> unit) -> unit
(** Called when a request is abandoned after its last retry. *)

val queue_length : t -> int
val containers : t -> Container.t array

val recovery_stats : t -> recovery_stats
