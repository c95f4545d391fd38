(** Deployment assembly: the paper's two-VM OpenWhisk setup (§5.1).

    One VM runs the core platform components (modelled by the controller's
    overhead), the other runs the invoker hosting the function containers —
    one per core, each limited to one core, SMT off. *)

type config = {
  n_cores : int;  (** Containers on the invoker VM (1–4 in the paper). *)
  dispatch_ns : Gh_sim.Time_ns.t;  (** Invoker-side per-request overhead. *)
  overhead : Controller.overhead_model;
  seed : int;
}

val default_config : config

type t = {
  engine : Gh_sim.Engine.t;
  controller : Controller.t;
  invoker : Invoker.t;
  rng : Gh_sim.Rng.t;
}

val deploy :
  ?trace:Gh_sim.Trace.t ->
  ?spans:Gh_sim.Span.t ->
  ?series:Gh_sim.Timeseries.t ->
  ?slos:Gh_sim.Slo.t list ->
  ?scrub:Container.scrub ->
  config ->
  make_strategy:(int -> Strategy_intf.t) ->
  t
(** Build engine, invoker (with [n_cores] containers) and controller.
    [make_strategy i] supplies container [i]'s isolation strategy.
    [scrub] enables idle-time snapshot scrubbing in every container (reads
    memory and the clock only — timings are unchanged in corruption-free
    runs).

    The four collectors become the one {!Gh_sim.Obs.t} that invoker,
    containers and controller share: [trace] records container
    transitions for debugging; [spans] records the request-scoped span
    tree across controller, invoker queue and containers; [series] /
    [slos] attach windowed time-series collection and burn-rate
    objectives at the controller (see {!Controller.create}). All default
    to off — the uninstrumented deployment is bit-identical to earlier
    revisions. *)
