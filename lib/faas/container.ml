module Engine = Gh_sim.Engine
module Trace = Gh_sim.Trace
module Span = Gh_sim.Span
module Obs = Gh_sim.Obs
module Time_ns = Gh_sim.Time_ns
module Rng = Gh_sim.Rng

type state = Idle | Busy | Restoring | Replacing | Quarantined

type failure =
  | Timed_out of Request.t
  | Poisoned_restore of Request.t
  | Corrupt_snapshot of string

type recovery = {
  timeout_ns : Time_ns.t option;
  quarantine_after : int;
  rebuild_backoff : Backoff.t;
  max_rebuild_attempts : int;
}

let default_recovery =
  {
    timeout_ns = Some (Time_ns.of_sec 1.0);
    quarantine_after = 3;
    (* Shared with the cluster breaker's probe pacing: one capped schedule
       for every repair loop in the platform. *)
    rebuild_backoff = Backoff.recovery;
    max_rebuild_attempts = 5;
  }

let passive_recovery = { default_recovery with timeout_ns = None; quarantine_after = max_int }

type scrub = {
  idle_delay : Time_ns.t;
  interval : Time_ns.t;
  blocks_per_slice : int;
}

let default_scrub =
  {
    idle_delay = Time_ns.of_ms 5.0;
    interval = Time_ns.of_ms 1.0;
    blocks_per_slice = 256;
  }

type t = {
  id : int;
  mutable strategy : Strategy_intf.t;
  engine : Engine.t;
  obs : Obs.t;
  recovery : recovery;
  rebuild : (unit -> (Strategy_intf.t, string) result) option;
  rng : Rng.t option;
  scrub : scrub option;
  mutable state : state;
  mutable completed : int;
  mutable on_idle : t -> unit;
  mutable on_failure : t -> failure -> unit;
  mutable on_retired : t -> unit;
  mutable on_scrub : t -> int -> unit;
  mutable consecutive_failures : int;
  mutable replacements : int;
  mutable recovery_ns : Time_ns.t list;
  mutable scrub_epoch : int;
  mutable scrubbed_blocks : int;
  mutable scrub_corruptions : int;
}

let create ?(obs = Obs.none) ?(recovery = default_recovery) ?rebuild ?rng ?scrub engine ~id
    strategy =
  {
    id;
    strategy;
    engine;
    obs;
    recovery;
    rebuild;
    rng;
    scrub;
    state = Idle;
    completed = 0;
    on_idle = ignore;
    on_failure = (fun _ _ -> ());
    on_retired = ignore;
    on_scrub = (fun _ _ -> ());
    consecutive_failures = 0;
    replacements = 0;
    recovery_ns = [];
    scrub_epoch = 0;
    scrubbed_blocks = 0;
    scrub_corruptions = 0;
  }

(* Takes a format, as [Node.trace_emitf] does: with no trace attached the
   arguments are consumed by [ikfprintf] and no detail string is built.
   The container prefix is joined to the format only when a trace is
   attached, because [^^] allocates a new format on every call. *)
let trace_emitf t ~what fmt =
  match t.obs.Obs.trace with
  | Some tr ->
      Trace.emitf tr ~at:(Engine.now t.engine) ~category:"container" ~what ("c%d " ^^ fmt) t.id
  | None -> Printf.ikfprintf ignore () fmt

(* Span emission for one invocation. Every bound below is already decided
   when the strategy returns (the simulated work is pure), so the whole
   tree — dispatch, exec with its cold-start / on-path-restore / I/O
   children, and the deferred restore with its Breakdown-step children —
   is recorded up front with exact timestamps. Reads [Engine.now] only:
   zero simulated cost. *)
let span_emit t req (inv : Strategy_intf.invocation) ~dispatch_ns =
  match t.obs.Obs.spans with
  | None -> ()
  | Some sp ->
      let now = Engine.now t.engine in
      let root =
        Span.ensure_root sp ~at:now ~req_id:req.Request.id
          ~attrs:[ ("principal", req.Request.principal.Principal.name) ]
          ()
      in
      let t1 = now + dispatch_ns in
      if dispatch_ns > 0 then
        ignore
          (Span.complete sp ~start:now ~stop:t1 ~parent:root ~name:"dispatch" ~cat:"container" ());
      let exec_stop = t1 + inv.Strategy_intf.on_path_ns in
      let exec =
        Span.complete sp ~start:t1 ~stop:exec_stop ~parent:root ~name:"exec" ~cat:"container"
          ~attrs:
            [
              ("container", string_of_int t.id);
              ("strategy", t.strategy.Strategy_intf.name);
              ("outcome", Strategy_intf.outcome_name inv.Strategy_intf.outcome);
              ("isolated", string_of_bool inv.Strategy_intf.isolated);
            ]
          ()
      in
      let cursor = ref t1 in
      if inv.Strategy_intf.cold_ns > 0 then begin
        ignore
          (Span.complete sp ~start:!cursor ~stop:(!cursor + inv.Strategy_intf.cold_ns)
             ~parent:exec ~name:"cold-start" ~cat:"container" ());
        cursor := !cursor + inv.Strategy_intf.cold_ns
      end;
      if inv.Strategy_intf.restore_on_path_ns > 0 then begin
        ignore
          (Span.complete sp ~start:!cursor
             ~stop:(!cursor + inv.Strategy_intf.restore_on_path_ns)
             ~parent:exec ~name:"restore-on-path" ~cat:"restore" ());
        cursor := !cursor + inv.Strategy_intf.restore_on_path_ns
      end;
      if inv.Strategy_intf.io_ns > 0 && exec_stop - inv.Strategy_intf.io_ns >= !cursor then
        ignore
          (Span.complete sp ~start:(exec_stop - inv.Strategy_intf.io_ns) ~stop:exec_stop
             ~parent:exec ~name:"actionloop-io" ~cat:"io" ());
      match inv.Strategy_intf.outcome with
      | Strategy_intf.Hung -> ()
      | outcome when inv.Strategy_intf.post_ns > 0 ->
          let label =
            match inv.Strategy_intf.restore_label with "" -> "restore" | l -> l
          in
          let restore =
            Span.complete sp ~start:exec_stop ~stop:(exec_stop + inv.Strategy_intf.post_ns)
              ~parent:root ~name:label ~cat:"restore"
              ~attrs:
                [
                  ("offpath", "true");
                  ("container", string_of_int t.id);
                  ("outcome", Strategy_intf.outcome_name outcome);
                ]
              ()
          in
          (match inv.Strategy_intf.breakdown with
          | Some b ->
              List.iter
                (fun (step, s0, s1) ->
                  ignore
                    (Span.complete sp ~start:s0 ~stop:s1 ~parent:restore ~name:step
                       ~cat:"restore-step" ()))
                (Groundhog_core.Breakdown.intervals b ~start:exec_stop)
          | None -> ())
      | _ -> ()

let state t = t.state
let is_idle t = t.state = Idle
let is_quarantined t = t.state = Quarantined
let completed t = t.completed
let strategy t = t.strategy
let replacements t = t.replacements
let recovery_ns t = t.recovery_ns
let set_on_idle t f = t.on_idle <- f
let set_on_failure t f = t.on_failure <- f
let set_on_retired t f = t.on_retired <- f
let set_on_scrub t f = t.on_scrub <- f
let scrubbed_blocks t = t.scrubbed_blocks
let scrub_corruptions t = t.scrub_corruptions

(* The idle/recovery state machine and the scrubber are one recursive knot:
   going idle starts a scrub pass, a corrupt slice fails the container, and
   a completed replacement goes idle again. *)
let rec become_idle t =
  t.state <- Idle;
  t.scrub_epoch <- t.scrub_epoch + 1;
  trace_emitf t ~what:"idle" "";
  t.on_idle t;
  (* [on_idle] may have dispatched the next request already; a slice is
     only worth scheduling when the container actually stayed idle. The
     epoch guard catches the remaining races (gone busy and idle again
     before the slice fires). *)
  match t.scrub with
  | Some cfg when t.state = Idle ->
      let epoch = t.scrub_epoch in
      Engine.schedule t.engine ~after:cfg.idle_delay (fun () -> scrub_slice t cfg epoch)
  | _ -> ()

(* One scrub slice: hash-check a bounded number of snapshot blocks against
   their capture-time hashes. Reading memory is free in simulated time, so
   the slices never perturb the request timeline; a pass runs once per idle
   period and stops at the end of the snapshot, so the event queue always
   drains. *)
and scrub_slice t cfg epoch =
  if t.state = Idle && t.scrub_epoch = epoch then
    match t.strategy.Strategy_intf.scrub cfg.blocks_per_slice with
    | Strategy_intf.Scrub_skip -> ()
    | Strategy_intf.Scrubbed (blocks, finished) ->
        t.scrubbed_blocks <- t.scrubbed_blocks + blocks;
        t.on_scrub t blocks;
        if not finished then
          Engine.schedule t.engine ~after:cfg.interval (fun () -> scrub_slice t cfg epoch)
    | Strategy_intf.Scrub_corrupt why ->
        t.scrub_corruptions <- t.scrub_corruptions + 1;
        trace_emitf t ~what:"scrub-corrupt" "%s" why;
        fail t (Corrupt_snapshot why)

(* Quarantine: k consecutive recovery failures (or no way to rebuild) mean
   this container is wasting its core on a hot loop — retire it for good.
   The owner (invoker / node) frees the core and memory in [on_retired]. *)
and retire t =
  t.state <- Quarantined;
  trace_emitf t ~what:"quarantine" "after %d consecutive failures" t.consecutive_failures;
  t.on_retired t

(* Cold restart: re-exec the function process, warm it up, re-snapshot —
   all charged to the fresh strategy's manager and occupying this core for
   the strategy's [init_ns]. A rebuild that itself fails (e.g. a fault
   during the re-snapshot) retries under capped exponential backoff. *)
and replace t rebuild ~started ~attempt =
  t.state <- Replacing;
  trace_emitf t ~what:"replace" "cold-restart attempt %d" attempt;
  match rebuild () with
  | Ok (s : Strategy_intf.t) ->
      Engine.schedule t.engine ~after:s.Strategy_intf.init_ns (fun () ->
          t.strategy <- s;
          t.replacements <- t.replacements + 1;
          t.recovery_ns <- (Engine.now t.engine - started) :: t.recovery_ns;
          trace_emitf t ~what:"replaced" "recovered in %.2fms"
            (Time_ns.to_ms (Engine.now t.engine - started));
          become_idle t)
  | Error msg ->
      trace_emitf t ~what:"rebuild-failed" "%s" msg;
      if attempt >= t.recovery.max_rebuild_attempts then retire t
      else
        let delay = Backoff.delay t.recovery.rebuild_backoff ?rng:t.rng ~attempt in
        Engine.schedule t.engine ~after:delay (fun () ->
            replace t rebuild ~started ~attempt:(attempt + 1))

and fail t failure =
  (* Whatever the flavour, the process (and its snapshot) is done serving:
     kill first, so the strategy releases everything it holds — notably a
     dedup registration — on every recovery path, including the ones that
     end in quarantine. [kill] is idempotent and free. *)
  t.strategy.Strategy_intf.kill ();
  t.consecutive_failures <- t.consecutive_failures + 1;
  t.on_failure t failure;
  if t.consecutive_failures >= t.recovery.quarantine_after then retire t
  else
    match t.rebuild with
    | None -> retire t
    | Some rebuild -> replace t rebuild ~started:(Engine.now t.engine) ~attempt:1

let submit ?(dispatch_ns = 0) t req ~on_response =
  if t.state <> Idle then invalid_arg "Container.submit: container busy";
  t.state <- Busy;
  trace_emitf t ~what:"serve" "req#%d from %s#%d" req.Request.id
    req.Request.principal.Principal.name req.Request.principal.Principal.id;
  (* The strategy computes costs immediately (the simulated work is pure);
     the engine realizes them as elapsed simulated time. *)
  let inv = t.strategy.Strategy_intf.invoke req in
  span_emit t req inv ~dispatch_ns;
  match inv.Strategy_intf.outcome with
  | Strategy_intf.Hung -> (
      (* No response will ever arrive. Hang detection is the engine clock
         reaching the platform's per-request timeout, after which the
         process is killed and the container cold-restarted. *)
      match t.recovery.timeout_ns with
      | Some timeout ->
          Engine.schedule t.engine ~after:(dispatch_ns + timeout) (fun () ->
              trace_emitf t ~what:"timeout" "req#%d killed after %.0fms" req.Request.id
                (Time_ns.to_ms timeout);
              (match t.obs.Obs.spans with
              | Some sp ->
                  let now = Engine.now t.engine in
                  ignore
                    (Span.complete sp ~start:now ~stop:now ~track:req.Request.id
                       ~parent:(Span.ensure_root sp ~at:now ~req_id:req.Request.id ())
                       ~name:"timeout-kill" ~cat:"failure" ())
              | None -> ());
              fail t (Timed_out req))
      | None ->
          (* No timeout configured: the container is stuck for good. *)
          trace_emitf t ~what:"hang" "req#%d (no timeout)" req.Request.id)
  | outcome ->
      Engine.schedule t.engine ~after:(dispatch_ns + inv.Strategy_intf.on_path_ns) (fun () ->
          t.completed <- t.completed + 1;
          trace_emitf t ~what:"respond" "req#%d isolated=%b" req.Request.id
            inv.Strategy_intf.isolated;
          on_response req inv;
          match outcome with
          | Strategy_intf.Poisoned ->
              (* The deferred restore failed: the burned time still occupies
                 the core, then the recovery pipeline takes over. *)
              if inv.Strategy_intf.post_ns > 0 then begin
                t.state <- Restoring;
                trace_emitf t ~what:"restore-failed" "%.2fms burned"
                  (Time_ns.to_ms inv.Strategy_intf.post_ns);
                Engine.schedule t.engine ~after:inv.Strategy_intf.post_ns (fun () ->
                    fail t (Poisoned_restore req))
              end
              else fail t (Poisoned_restore req)
          | _ ->
              (* A request served and recovered end-to-end: the container
                 earned its health back. *)
              t.consecutive_failures <- 0;
              if inv.Strategy_intf.post_ns > 0 then begin
                t.state <- Restoring;
                trace_emitf t ~what:"restore" "%.2fms deferred"
                  (Time_ns.to_ms inv.Strategy_intf.post_ns);
                Engine.schedule t.engine ~after:inv.Strategy_intf.post_ns (fun () ->
                    become_idle t)
              end
              else become_idle t)
