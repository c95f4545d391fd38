(** The platform front door: authentication, routing, result handling.

    Adds the end-to-end overhead that is {e not} the invoker's: the paper's
    E2E latencies exceed invoker latencies by roughly 28–43 ms of platform
    machinery, which dilutes Groundhog's relative overhead in Fig. 4
    (a/c/e). The overhead model reproduces that distribution. *)

type overhead_model = {
  base_ns : Gh_sim.Time_ns.t;  (** Deterministic floor of platform work. *)
  jitter_mu_ns : float;  (** Median of the lognormal jitter component. *)
  jitter_sigma : float;
}

val default_overhead : overhead_model

val sample_overhead : overhead_model -> Gh_sim.Rng.t -> Gh_sim.Time_ns.t

type t

type sink = Request.t -> on_response:(Request.t -> Strategy_intf.invocation -> unit) -> unit
(** Whatever sits behind the front door: given an accepted request, it must
    eventually call [on_response] at most once (shed requests never do). *)

type completion = {
  request : Request.t;
  invocation : Strategy_intf.invocation;
  e2e_ns : Gh_sim.Time_ns.t;  (** Client-observed latency. *)
  invoker_ns : Gh_sim.Time_ns.t;  (** Invoker-measured latency (on-path). *)
}

val create :
  ?overhead:overhead_model ->
  ?obs:Gh_sim.Obs.t ->
  Gh_sim.Engine.t ->
  rng:Gh_sim.Rng.t ->
  Invoker.t ->
  t
(** [obs] (default {!Gh_sim.Obs.none}) supplies the collectors. Its
    [spans] open the request's root span at arrival, wrap the front/return
    platform overheads in ["controller"] spans, and close the root at
    client response with ["outcome"] and ["e2e_ns"] attributes. Its
    [series] samples client-observed latency into a [controller.e2e_ms]
    window sketch on every completion; its [slos] see every completion
    ([ok] iff the outcome is [Completed] or [Poisoned], latency = e2e) and
    every front-door shed (a bad event). All of it reads the clock only —
    no simulated time is charged. *)

val create_sink :
  ?overhead:overhead_model ->
  ?ttl_ns:Gh_sim.Time_ns.t ->
  ?obs:Gh_sim.Obs.t ->
  Gh_sim.Engine.t ->
  rng:Gh_sim.Rng.t ->
  sink ->
  t
(** Same front door over an arbitrary backend — how a {!Cluster} sits
    behind the controller. {!create} is [create_sink] over
    [Invoker.submit]; RNG splitting and overhead sampling are identical,
    so swapping one for the other never perturbs the random stream.

    [ttl_ns] enables deadlines: each accepted request without one is
    stamped [now + ttl_ns], exactly once, at the front door; the deadline
    then propagates to the backend, which sheds the request if it has
    already expired. Omitted (the default), no deadline is ever stamped —
    the pre-overload-protection behavior, bit-identical. *)

val submit : t -> Request.t -> on_complete:(completion -> unit) -> unit
(** Accept a request at the endpoint now; the completion callback fires when
    the response has traversed the platform back to the client. Requests
    already expired after the front-door overhead are shed (no completion;
    see {!set_on_shed}). *)

val completions : t -> int

val shed : t -> int
(** Requests the controller itself shed at the front door. *)

val set_on_shed : t -> (Request.t -> unit) -> unit
