(* Node-level brownout controller.

   Watches queueing delay (time from submit to dispatch) against a target
   and degrades in steps when it is breached persistently:

     Normal   — full service: every completed request is followed by
                incremental re-snapshot/restore as usual.
     Degraded — defer re-snapshotting work off the critical path and stop
                cold-starting new containers while any warm one exists.
     Shedding — additionally drop arrivals from principals below a priority
                floor before they are queued.

   Escalation needs [escalate_after] consecutive over-target samples;
   recovery needs [recover_after] consecutive samples under
   [hysteresis * target]. The asymmetric thresholds (classic Schmitt
   trigger) prevent flapping when delay hovers at the boundary. Samples in
   the dead band between the two thresholds reset both streaks.

   Everything is a pure function of the observed delays — no randomness, so
   a fixed seed replays the same level trajectory. *)

module Time_ns = Gh_sim.Time_ns
module Trace = Gh_sim.Trace

type level = Normal | Degraded | Shedding

let level_name = function
  | Normal -> "normal"
  | Degraded -> "degraded"
  | Shedding -> "shedding"

let rank = function Normal -> 0 | Degraded -> 1 | Shedding -> 2
let of_rank = function 0 -> Normal | 1 -> Degraded | _ -> Shedding

type config = {
  target_delay_ns : Time_ns.t;
  escalate_after : int;
  recover_after : int;
  hysteresis : float;
  shed_below_priority : int;
}

let validate cfg =
  if cfg.target_delay_ns <= 0 then invalid_arg "Brownout: target_delay_ns must be positive";
  if cfg.escalate_after <= 0 || cfg.recover_after <= 0 then
    invalid_arg "Brownout: escalate_after/recover_after must be positive";
  if cfg.hysteresis <= 0.0 || cfg.hysteresis > 1.0 then
    invalid_arg "Brownout: hysteresis must be in (0, 1]"

type t = {
  cfg : config;
  trace : Trace.t option;
  mutable level : level;
  mutable over_streak : int;
  mutable under_streak : int;
  mutable escalations : int;
}

let create ?trace cfg =
  validate cfg;
  {
    cfg;
    trace;
    level = Normal;
    over_streak = 0;
    under_streak = 0;
    escalations = 0;
  }

let level t = t.level
let config t = t.cfg
let escalations t = t.escalations

let observe ?(at = 0) t delay_ns =
  let cfg = t.cfg in
  let recover_below = cfg.hysteresis *. float_of_int cfg.target_delay_ns in
  if delay_ns > cfg.target_delay_ns then begin
    t.over_streak <- t.over_streak + 1;
    t.under_streak <- 0;
    if t.over_streak >= cfg.escalate_after && t.level <> Shedding then begin
      t.level <- of_rank (rank t.level + 1);
      t.over_streak <- 0;
      t.escalations <- t.escalations + 1;
      Trace.emitf_opt t.trace ~at ~category:"brownout" ~what:"escalate"
        "-> %s (delay %.2fms over %.2fms target)" (level_name t.level) (Time_ns.to_ms delay_ns)
        (Time_ns.to_ms cfg.target_delay_ns);
      true
    end
    else false
  end
  else if float_of_int delay_ns <= recover_below then begin
    t.under_streak <- t.under_streak + 1;
    t.over_streak <- 0;
    if t.under_streak >= cfg.recover_after && t.level <> Normal then begin
      t.level <- of_rank (rank t.level - 1);
      t.under_streak <- 0;
      Trace.emitf_opt t.trace ~at ~category:"brownout" ~what:"recover"
        "-> %s (delay %.2fms under %.0f%% of target)" (level_name t.level)
        (Time_ns.to_ms delay_ns) (100.0 *. cfg.hysteresis);
      true
    end
    else false
  end
  else begin
    (* Dead band: neither clearly overloaded nor clearly recovered. *)
    t.over_streak <- 0;
    t.under_streak <- 0;
    false
  end

let should_shed t principal =
  t.level = Shedding && Principal.priority principal < t.cfg.shed_below_priority

let defer_restores t = t.level <> Normal
let suppress_cold_starts t = t.level <> Normal
