(** A multi-tenant invoker node: many functions, per-function container
    pools, cold starts, idle eviction, and a memory budget.

    The single-function {!Invoker} reproduces the paper's measurement setup
    (a fixed pool, cold starts excluded). This module models the
    surrounding reality of §2: containers are created on demand (paying
    initialization on the first request's critical path), reused while
    warm, shut down after an idle timeout, and bounded by the node's
    memory. A Groundhog container costs more memory than an insecure one —
    its manager holds the snapshot buffer — so isolation also taxes
    container {e density}; the incremental snapshot mode (§5.5) largely
    removes that tax.

    Scheduling: a request for function F goes to an idle warm container of
    F if one exists; otherwise a new container is created when both a core
    and enough memory are free; otherwise the request queues per function
    through an {!Admission} buffer — unbounded FIFO by default
    (bit-identical to the pre-overload-protection node), bounded with a
    shedding policy when configured. Cores are occupied only while a
    container is busy or restoring; memory is held for a container's whole
    lifetime.

    Containers run {!Container.passive_recovery}: a hang wedges its
    container, and a poisoned or scrub-corrupt one is retired (core and
    memory freed) — fail closed, no replacement.

    Overload protection: requests whose deadline has passed are shed at
    admission and purged before every dispatch (never occupying a core or
    restore); an optional {!Brownout} controller watches queueing delay
    and degrades service — deferring strategies' post-completion restore
    work, preferring warm containers over cold starts, finally shedding
    low-priority arrivals — recovering hysteretically. *)

type config = {
  total_cores : int;
  memory_mb : int;  (** Budget for containers + manager buffers. *)
  idle_timeout : Gh_sim.Time_ns.t;  (** Idle containers are shut down. *)
  dispatch_ns : Gh_sim.Time_ns.t;
  admission : Admission.config;
      (** Per-function queue bound + shedding policy; default
          {!Admission.unbounded}. *)
  brownout : Brownout.config option;
      (** [Some cfg] enables the graceful-degradation controller; [None]
          (default) disables it entirely. *)
  scrub : Container.scrub option;
      (** [Some cfg] enables idle-time snapshot scrubbing in every
          container (see {!Container.scrub}). A corruption the scrubber
          finds retires the container before any request is served from
          the bad snapshot; the per-function counters [scrub_slices],
          [scrubbed_blocks] and [scrub_corruptions] land in the metrics
          registry. [None] (default) disables scrubbing. *)
}

val default_config : config
(** 4 cores, 8 GiB, 60 s idle timeout, unbounded admission, no brownout,
    no scrubbing. *)

type t

type fn_stats = {
  fn_name : string;
  completed : int;
  cold_starts : int;
  evictions : int;
  queue_len : int;
  containers : int;  (** Currently alive. *)
  e2e_ms : float list;
      (** Per-request latency incl. queueing, newest first. Bounded: a
          uniform reservoir sample past 8192 requests. *)
  failed_requests : int;  (** Always 0: no request is retried, so none is abandoned. *)
  quarantined : int;  (** Containers permanently retired. *)
  shed : int;  (** Dropped: queue overflow + brownout priority shed. *)
  expired : int;  (** Dropped: deadline passed (on arrival or queued). *)
  deadline_misses : int;  (** Completions delivered after their deadline. *)
  queue_high_water : int;  (** Largest backlog ever queued. *)
  cancelled : int;  (** Queued hedge losers removed by {!cancel}. *)
}

val create :
  ?obs:Gh_sim.Obs.t ->
  ?metrics_prefix:string ->
  Gh_sim.Engine.t ->
  config ->
  make_strategy:(string -> Function_model.spec -> Strategy_intf.t) ->
  t
(** [make_strategy name spec] builds a fresh strategy instance for one new
    container of function [name].

    [obs] (default {!Gh_sim.Obs.none}) supplies the collectors, shared
    with every container:
    - [metrics] is the registry holding every per-function counter and
      latency histogram (names [<metrics_prefix>node.<fn>.<field>]) plus
      node-wide gauges; a private registry is created when it is [None],
      so counting behavior never changes — {!stats} reads the same
      numbers either way;
    - [spans] record request-scoped spans: a root per request (attrs
      [principal], [fn]), a ["node-queue"] phase while queued, the
      containers' exec/restore trees, and root closure with [outcome] and
      [e2e_ns] at response (or shed/give-up);
    - [series] collects windowed samples — per-function end-to-end
      latency and per-step restore costs feed its quantile sketches, and
      its lazy window rolls capture the registry's counters and gauges;
    - [slos] are evaluated on every completion, shed and give-up;
    - [recorder] snapshots the pre-failure window on every failure edge
      (container poisoned, slot quarantined, scrub corruption).
    All instrumentation reads the engine clock only; simulated time and
    RNG draws are untouched. *)

val metrics : t -> Gh_sim.Metrics.t
(** The registry backing {!stats} — pass it to an exporter. *)

val register : t -> name:string -> Function_model.spec -> unit
(** Deploy a function. @raise Invalid_argument on duplicate names. *)

val submit :
  ?on_complete:(Request.t -> Strategy_intf.invocation -> unit) -> t -> name:string -> Request.t -> unit
(** Accept a request for a deployed function now (simulated time); it is
    dispatched, cold-started, queued, or shed according to the policy
    above. [on_complete] fires when a response is delivered (not for shed
    or expired requests).
    @raise Not_found for unknown functions. *)

val cancel : t -> name:string -> req_id:int -> bool
(** Remove a still-queued request {e silently} — no shed count, no
    [on_shed] — because a hedged duplicate was served elsewhere. Returns
    [false] when the request is not queued under [name] (unknown, already
    executing, or already done); an executing copy runs to completion and
    its response must be discarded by the caller. *)

val warm_idle : t -> name:string -> int
(** Idle warm containers currently held for [name] (0 for unknown
    functions) — the snapshot-warm-aware placement signal. *)

val set_on_shed : t -> (Admission.reason -> Request.t -> unit) -> unit
(** Called once per shed request, across all pools; the request will never
    produce a response. *)

val brownout_escalations : t -> int

val stats : t -> fn_stats list
val memory_used_mb : t -> int
val memory_high_water_mb : t -> int
val cores_busy : t -> int
val total_cold_starts : t -> int
val total_evictions : t -> int
val total_shed : t -> int
val total_expired : t -> int
val total_deadline_misses : t -> int
