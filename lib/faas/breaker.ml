(* Per-node circuit breaker for the cluster's dispatch path.

   The controller stops routing to a node after a run of consecutive
   attempt failures (timeouts, lost messages): the breaker opens, and only
   a single probe request is let through once a capped-backoff dwell has
   elapsed — half-open. A successful probe closes the breaker; a failed
   one re-opens it with a longer dwell. Dwells reuse the platform's shared
   [Backoff.recovery] schedule, so breaker probes and container rebuilds
   saturate at the same cap.

   Purely controller-side state driven by the engine clock the caller
   passes in: no events are scheduled and no randomness is drawn unless
   the caller supplies an rng for dwell jitter. *)

module Time_ns = Gh_sim.Time_ns
module Rng = Gh_sim.Rng

type state = Closed | Open | Half_open

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

(* Stable encoding for the per-node breaker gauge. *)
let state_index = function Closed -> 0 | Open -> 1 | Half_open -> 2

type config = {
  failure_threshold : int;  (* consecutive failures that open the breaker *)
  probe_backoff : Backoff.t;  (* dwell before each half-open probe *)
}

let default_config = { failure_threshold = 3; probe_backoff = Backoff.recovery }

type t = {
  config : config;
  rng : Rng.t option;
  mutable state : state;
  mutable consecutive : int;  (* failures since the last success, Closed only *)
  mutable open_streak : int;  (* consecutive opens: the backoff attempt index *)
  mutable retry_at : Time_ns.t;  (* Open: when the next probe may go out *)
  mutable probing : bool;  (* Half_open: the one probe slot is taken *)
  mutable on_transition : state -> state -> unit;
}

let create ?rng config =
  if config.failure_threshold < 1 then
    invalid_arg "Breaker.create: failure_threshold must be >= 1";
  {
    config;
    rng;
    state = Closed;
    consecutive = 0;
    open_streak = 0;
    retry_at = 0;
    probing = false;
    on_transition = (fun _ _ -> ());
  }

let state t = t.state
let set_on_transition t f = t.on_transition <- f

let goto t next =
  if t.state <> next then begin
    let prev = t.state in
    t.state <- next;
    t.on_transition prev next
  end

let trip t ~now =
  t.open_streak <- t.open_streak + 1;
  t.probing <- false;
  t.retry_at <- now + Backoff.delay ?rng:t.rng t.config.probe_backoff ~attempt:t.open_streak;
  goto t Open

(* May this node receive a request right now? Pure: no state moves until
   the caller commits with [on_dispatch]. *)
let ready t ~now =
  match t.state with
  | Closed -> true
  | Half_open -> not t.probing
  | Open -> now >= t.retry_at

(* The caller chose this node: consume the probe slot if the breaker is
   (or just became) half-open. *)
let on_dispatch t ~now =
  match t.state with
  | Closed -> ()
  | Open ->
      if now < t.retry_at then invalid_arg "Breaker.on_dispatch: breaker is open";
      goto t Half_open;
      t.probing <- true
  | Half_open ->
      if t.probing then invalid_arg "Breaker.on_dispatch: probe already in flight";
      t.probing <- true

let record_success t =
  match t.state with
  | Closed -> t.consecutive <- 0
  | Half_open ->
      (* The probe came back: the node earned its traffic back. *)
      t.consecutive <- 0;
      t.open_streak <- 0;
      t.probing <- false;
      goto t Closed
  | Open ->
      (* A straggler response from before the trip: evidence, not a probe.
         Leave the dwell untouched. *)
      ()

let record_failure t ~now =
  match t.state with
  | Closed ->
      t.consecutive <- t.consecutive + 1;
      if t.consecutive >= t.config.failure_threshold then trip t ~now
  | Half_open -> trip t ~now
  | Open -> ()
