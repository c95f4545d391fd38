(* Controller-side health view of one node, driven by heartbeats.

   The cluster ticks once per heartbeat interval and reports, for each
   node, whether a heartbeat arrived ([beat]) or not ([miss]). Suspicion
   is a pure function of consecutive misses:

     Healthy --misses >= suspect_after--> Draining
     Draining --misses >= quarantine_after--> Quarantined
     Quarantined --beat--> Rejoining --beats >= rejoin_after--> Healthy

   Draining stops new placements but lets in-flight work finish (the
   drain); Quarantined means presumed dead — the supervisor may restart
   the node; Rejoining is probation: heartbeats must hold for
   [rejoin_after] consecutive intervals before traffic returns, so a
   flapping node cannot oscillate in and out of rotation every beat. *)

type state = Healthy | Draining | Quarantined | Rejoining

let state_name = function
  | Healthy -> "healthy"
  | Draining -> "draining"
  | Quarantined -> "quarantined"
  | Rejoining -> "rejoining"

(* Stable encoding for the per-node health gauge. *)
let state_index = function
  | Healthy -> 0
  | Draining -> 1
  | Quarantined -> 2
  | Rejoining -> 3

type config = {
  suspect_after : int;  (* consecutive misses: Healthy -> Draining *)
  quarantine_after : int;  (* consecutive misses: -> Quarantined *)
  rejoin_after : int;  (* consecutive beats: Rejoining -> Healthy *)
}

let default_config = { suspect_after = 2; quarantine_after = 4; rejoin_after = 2 }

type t = {
  config : config;
  mutable state : state;
  mutable misses : int;  (* consecutive missed heartbeats *)
  mutable beats : int;  (* consecutive heartbeats, Rejoining only *)
  mutable on_transition : state -> state -> unit;
}

let create config =
  if config.suspect_after < 1 || config.quarantine_after <= config.suspect_after then
    invalid_arg "Health.create: need 1 <= suspect_after < quarantine_after";
  if config.rejoin_after < 1 then invalid_arg "Health.create: rejoin_after must be >= 1";
  {
    config;
    state = Healthy;
    misses = 0;
    beats = 0;
    on_transition = (fun _ _ -> ());
  }

let state t = t.state
let set_on_transition t f = t.on_transition <- f

let accepts_traffic t = t.state = Healthy
let presumed_dead t = t.state = Quarantined

let goto t next =
  if t.state <> next then begin
    let prev = t.state in
    t.state <- next;
    t.on_transition prev next
  end

let beat t =
  t.misses <- 0;
  match t.state with
  | Healthy -> ()
  | Draining ->
      (* It was only slow: back in rotation without probation — nothing
         was torn down. *)
      goto t Healthy
  | Quarantined ->
      t.beats <- 1;
      if t.config.rejoin_after <= 1 then goto t Healthy else goto t Rejoining
  | Rejoining ->
      t.beats <- t.beats + 1;
      if t.beats >= t.config.rejoin_after then goto t Healthy

let miss t =
  t.beats <- 0;
  t.misses <- t.misses + 1;
  match t.state with
  | Healthy -> if t.misses >= t.config.suspect_after then goto t Draining
  | Draining -> if t.misses >= t.config.quarantine_after then goto t Quarantined
  | Quarantined -> ()
  | Rejoining ->
      (* Probation failed: back to presumed dead. *)
      goto t Quarantined
