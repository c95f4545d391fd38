(** A fleet of invoker {!Node}s behind one front door, with the
    management plane that keeps requests flowing when nodes fail:
    heartbeat health checking ({!Health}), per-node circuit breakers
    ({!Breaker}), restart supervision, deadline-aware failover retries,
    and hedged requests with loser cancellation.

    Node-level faults come from the shared {!Gh_sim.Fault} plan
    ([Node_crash], [Node_hang], [Cluster_msg_loss], [Heartbeat_drop]) —
    drawn in member-id order once per heartbeat tick, for every member
    whether up or not (a draw on a dead member is a no-op). The crash and
    hang occurrence index therefore advances [n_nodes] per tick
    unconditionally: member [j]'s draw on tick [k] (1-based) is occurrence
    [(k-1) * n_nodes + j + 1], so a fixed seed replays the exact same
    fault schedule even across runs whose fleet histories diverge. A crashed node loses its warm
    pool, queue and in-flight work (stale responses are dropped by an
    epoch check, counted [lost_responses]); a restarted node returns
    through rejoin probation before taking traffic again.

    Delivery is exactly-once: per request, [on_response] or the
    [on_failed] hook fires — never both, never twice. Duplicate
    responses from hedges, retries or timed-out attempts are counted
    [wasted_responses] and suppressed. Conservation invariant: total
    node completions = served + wasted + lost. *)

type placement =
  | Round_robin
  | Least_loaded  (** Fewest outstanding cluster attempts; ties to lowest id. *)
  | Warm_aware
      (** Prefer nodes holding an idle warm container for the function
          (they serve without a cold start), then least-loaded. *)

val placement_name : placement -> string

type config = {
  n_nodes : int;
  node : Node.config;  (** Every member runs this node configuration. *)
  placement : placement;
  failover : bool;
      (** The management plane switch. [true]: health checking, breakers,
          restarts, retries and hedging are active. [false]: dispatch is
          blind and fire-and-forget — crashed nodes keep receiving (and
          losing) requests, nothing is retried or restarted. Both arms
          draw node faults from the same plan, so the comparison isolates
          the plane itself. *)
  hb_interval : Gh_sim.Time_ns.t;  (** Heartbeat (and fault-draw) period. *)
  hang_ns : Gh_sim.Time_ns.t;  (** Duration of a [Node_hang] stall. *)
  response_timeout : Gh_sim.Time_ns.t;
      (** Per-attempt patience before the attempt is presumed lost. *)
  max_attempts : int;  (** Dispatch budget per request, hedges included. *)
  hedge_after : Gh_sim.Time_ns.t option;
      (** [Some d]: a request still unanswered [d] after its first
          dispatch is hedged to a second node; the first response wins
          and still-queued losers are cancelled. [None]: no hedging. *)
  restart_ns : Gh_sim.Time_ns.t;
      (** Quarantine-to-running delay for the supervisor's restart. *)
  health : Health.config;
  breaker : Breaker.config;
}

type t

val create :
  ?obs:Gh_sim.Obs.t ->
  ?rng:Gh_sim.Rng.t ->
  ?fault:Gh_sim.Fault.t ->
  Gh_sim.Engine.t ->
  config ->
  make_strategy:(string -> Function_model.spec -> Strategy_intf.t) ->
  t
(** Member node [i] registers its metrics under prefix ["n<i>."] in the
    shared registry ([obs.metrics], or a private one), and the cluster
    adds per-node [cluster.n<i>.health] / [.breaker] / [.inflight] /
    [.up] gauges plus fleet-wide counters under ["cluster."]. Counters
    survive restarts (find-or-create), so per-node counts are cumulative
    across incarnations. [fault] defaults to {!Gh_sim.Fault.none} — no
    draws, bit-identical to a fault-free build.

    [obs] (default {!Gh_sim.Obs.none}) supplies the collectors; member
    nodes get all of them but [spans] and [slos].

    [spans] records cluster-level spans: one request root per submission,
    an instant ["place"] child per placement decision (attrs [placement],
    [node], [attempt], [hedge]), an ["attempt-k"] child per dispatch
    closed with its outcome ([win] / [wasted] / [lost] / [timeout] /
    [cancelled] / [shed]), plus node downtime windows. The root closes
    once the request is settled and every attempt concluded, so
    {!Gh_sim.Span.check} holds on drained failover-on runs. Member nodes
    run without span recording so hedged duplicates cannot collide on
    per-request phase keys.

    [series] is shared with the member nodes (front-door [cluster.e2e_ms]
    sketch plus the nodes' per-function series over the shared registry);
    [slos] are evaluated at the front door only — every served or
    abandoned request, re-ticked each heartbeat; [recorder] snapshots on
    node quarantine and breaker-open edges and is shared with member
    nodes for their container-level edges.
    @raise Invalid_argument if [n_nodes < 1] or [max_attempts < 1]. *)

val register : t -> name:string -> Function_model.spec -> unit
(** Deploy a function on every member (and every future restart).
    @raise Invalid_argument on duplicate names. *)

val start : t -> until:Gh_sim.Time_ns.t -> unit
(** Begin the heartbeat/fault tick loop, one tick per [hb_interval] up to
    and including [until] (a finite chain, so [Engine.run_all] drains).
    Without it no node faults fire and no health state ever changes. *)

val submit :
  t ->
  name:string ->
  Request.t ->
  on_response:(Request.t -> Strategy_intf.invocation -> unit) -> unit
(** Route one request into the fleet. [on_response] fires at most once —
    first valid response wins, duplicates are suppressed; a request that
    exhausts its budget, expires, or becomes unrouteable fires the
    {!set_on_failed} hook instead. Matches {!Controller.sink}, so a
    partial application [fun req ~on_response -> submit t ~name req
    ~on_response] plugs straight into {!Controller.create}.
    @raise Not_found for unregistered functions. *)

val set_on_failed : t -> (Request.t -> unit) -> unit
(** Called exactly once per abandoned request (never for served ones). *)

val metrics : t -> Gh_sim.Metrics.t

type member_view = {
  mv_id : int;
  mv_up : bool;
  mv_health : Health.state;
  mv_breaker : Breaker.state;
  mv_inflight : int;  (** Outstanding cluster attempts on this member. *)
  mv_epoch : int;  (** Incarnation count (bumped on every death). *)
}

val member_views : t -> member_view list
(** Fleet snapshot in member-id order. *)

type stats = {
  submitted : int;
  served : int;  (** Requests whose response reached the client. *)
  late_served : int;
      (** Subset of [served]: the winning response arrived after its
          attempt had already been timed out. *)
  failed : int;  (** Requests abandoned (budget, deadline, unrouteable). *)
  retries : int;  (** Failover re-dispatches (excludes hedges). *)
  hedges : int;
  hedge_cancelled : int;  (** Still-queued losers removed after the win. *)
  wasted_responses : int;  (** Valid responses suppressed as duplicates. *)
  lost_responses : int;  (** Responses that died with their node. *)
  msg_lost : int;  (** Dispatches dropped in transit or sent to the dead. *)
  attempt_timeouts : int;
  crashes : int;
  hangs : int;
  restarts : int;
  node_completions : int;  (** Sum of member completions, all incarnations. *)
  inflight : int;  (** Outstanding attempts fleet-wide (0 once drained). *)
  pending_requests : int;  (** Requests not yet fully accounted (0 once drained). *)
  failover_ms : float list;
      (** Per served-after-failure request: first failure signal to
          winning response, milliseconds. *)
}

val stats : t -> stats
(** Conservation invariant once the engine has drained (failover on):
    [node_completions = served + wasted_responses + lost_responses],
    [inflight = 0] and [pending_requests = 0]. *)
