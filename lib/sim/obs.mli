(** The observability context: every collector a simulated request can be
    watched by, passed through the FaaS stack as one value.

    Container, invoker, controller, node and cluster each take one [?obs]
    (default {!none}) and keep it in one field. A collector that is [None]
    (or an empty SLO list) records nothing. The helpers below are the
    recordings those layers share. Each one reads the clock it is handed
    and writes only into the attached collectors: none schedules engine
    work, draws a random number or charges simulated time, so attaching
    collectors never changes a simulated result. With nothing attached
    they allocate nothing. *)

type t = {
  trace : Trace.t option;  (** State transitions, for timelines. *)
  spans : Span.t option;  (** Request-scoped span trees. *)
  metrics : Metrics.t option;
      (** The registry nodes and clusters count into; [None] gives each
          one a private registry. *)
  series : Timeseries.t option;  (** Windowed series over that registry. *)
  slos : Slo.t list;  (** Burn-rate objectives. *)
  recorder : Flight_recorder.t option;  (** Pre-failure window dumps. *)
}

val none : t
(** Nothing attached. Attach collectors by copying it:
    [{ Obs.none with spans = Some sp }]. *)

val tick : t -> now:Time_ns.t -> unit
(** Roll the series' windows up to [now]. *)

val heartbeat : t -> now:Time_ns.t -> unit
(** {!tick}, then re-evaluate every SLO, so alerts fire and clear even
    while no request completes. *)

val completion :
  t ->
  now:Time_ns.t ->
  ?steps:(string * float) list ->
  string ->
  e2e_ns:Time_ns.t ->
  ok:bool ->
  cold:bool ->
  unit
(** One answered request, [e2e_ns] after it arrived. {!tick}, sample the
    latency in ms under the given series name, then sample each
    [(name, value)] of [steps] (default none); then record the completion
    in every SLO and re-evaluate it. *)

val failure : t -> now:Time_ns.t -> unit
(** A request that got no answer (shed, expired or abandoned): a bad
    event for every SLO, for availability and latency alike. *)

val failure_edge :
  t -> now:Time_ns.t -> node:string -> reason:string -> detail:string -> unit
(** Freeze the pre-failure window in the flight recorder. *)
