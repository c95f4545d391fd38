(** Declarative service-level objectives with multi-window,
    multi-burn-rate alerting (the SRE-workbook recipe, scaled to
    simulated time) and hysteresis.

    An objective classifies each completion as good or bad; {!tick}
    evaluates every rule's burn rate — error rate over the error budget
    [1 - target] — across a long and a short window, firing when both
    burn (real spend that is still happening) and clearing after
    [clear_after] consecutive clean evaluations. Firing and clearing
    emit into the attached {!Trace} (category ["slo"]) and {!Metrics}
    ([slo.<name>.fired] / [.cleared] / [.good] / [.bad] counters and a
    [.firing] gauge). Everything only reads the clock it is handed:
    evaluation never schedules engine work or perturbs the run. *)

type objective =
  | Availability of { target : float }  (** Fraction of requests served. *)
  | Latency of { limit_ms : float; target : float }
      (** Fraction of requests answered within [limit_ms] (a failed
          request also violates: the user never got an answer). *)
  | Cold_start of { target : float }
      (** Fraction of serves not paying a cold start. *)

type rule = { long_ns : Time_ns.t; short_ns : Time_ns.t; burn : float }

type config = {
  name : string;
  objective : objective;
  rules : rule list;
  clear_after : int;  (** Clean {!tick}s before a firing alert clears. *)
  min_events : int;  (** Long-window events required before firing. *)
}

type alert = {
  a_at : Time_ns.t;
  a_kind : [ `Fire | `Clear ];
  a_rule : int;  (** Tripping rule index on fire; [-1] on clear. *)
  a_burn_long : float;
  a_burn_short : float;
}

type t

val create : ?trace:Trace.t -> ?metrics:Metrics.t -> config -> t
(** @raise Invalid_argument on an empty rule list, a target outside
    (0, 1), non-positive burn, or [long_ns < short_ns]. *)

val name : t -> string

val record : t -> now:Time_ns.t -> good:bool -> unit
(** One classified event at [now]. *)

val record_completion :
  t -> now:Time_ns.t -> ok:bool -> e2e_ms:float -> cold:bool -> unit
(** Classify one request completion under this SLO's objective and
    {!record} it ([e2e_ms] is ignored by availability, [cold] by
    latency; failed requests are invisible to the cold-start SLI). *)

val tick : t -> now:Time_ns.t -> unit
(** Evaluate the rules and update firing state. Call from sites that
    already hold the clock (heartbeats, completions). *)

val firing : t -> bool
val alerts : t -> alert list
(** Fire/clear transitions, oldest first. *)

val totals : t -> int * int
(** Lifetime (good, bad) event counts. *)

val standard :
  ?trace:Trace.t ->
  ?metrics:Metrics.t ->
  ?base_ns:Time_ns.t ->
  ?latency_limit_ms:float ->
  ?availability_target:float ->
  unit ->
  t list
(** The fleet's stock objectives: availability (default 99.9%), latency
    under [latency_limit_ms] at 99%, and cold-start rate, each on
    the workbook's fast (14.4x over 5m/1h) and slow (6x over 30m/6h) rule
    pairs, with the fast short window scaled to [base_ns] (default 200 ms
    sim time). *)

val to_json : t -> Json.t
