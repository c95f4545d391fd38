module Engine = Gh_sim.Engine
module Time_ns = Gh_sim.Time_ns
module Trace = Gh_sim.Trace
module Span = Gh_sim.Span
module Metrics = Gh_sim.Metrics
module Obs = Gh_sim.Obs

type config = {
  total_cores : int;
  memory_mb : int;
  idle_timeout : Time_ns.t;
  dispatch_ns : Time_ns.t;
  admission : Admission.config;
  brownout : Brownout.config option;
  scrub : Container.scrub option;
}

let default_config =
  {
    total_cores = 4;
    memory_mb = 8_192;
    idle_timeout = Time_ns.of_sec 60.0;
    dispatch_ns = Time_ns.of_us 800.0;
    admission = Admission.unbounded;
    brownout = None;
    scrub = None;
  }

(* Per-request latency samples kept per function. Far above what any test
   or experiment reads exactly (they stay below capacity, where the
   reservoir is an exact newest-first list), yet bounded, so week-long
   open-loop runs can't grow without limit. The histogram uses [All]
   sampling with the pre-registry reservoir seed, so sample lists are
   bit-identical to the raw-reservoir revisions. *)
let e2e_reservoir_capacity = 8192

type slot = {
  container : Container.t;
  memory_mb : int;
  mutable epoch : int;  (* bumped on every dispatch; guards eviction *)
  mutable alive : bool;
}

type pending = {
  req : Request.t;
  submitted : Time_ns.t;
  on_complete : (Request.t -> Strategy_intf.invocation -> unit) option;
}

type fn_stats = {
  fn_name : string;
  completed : int;
  cold_starts : int;
  evictions : int;
  queue_len : int;
  containers : int;
  e2e_ms : float list;
  failed_requests : int;
  quarantined : int;
  shed : int;
  expired : int;
  deadline_misses : int;
  queue_high_water : int;
  cancelled : int;
}

(* Every per-function count lives in the node's metrics registry; the pool
   holds the looked-up handles so the hot path never re-hashes a name. *)
type pool = {
  fn_name : string;
  spec : Function_model.spec;
  mutable slots : slot list;
  queue : pending Admission.t;
  completed : Metrics.counter;
  cold_starts : Metrics.counter;
  evictions : Metrics.counter;
  e2e_name : string;  (* the histogram's name, also its series' *)
  e2e : Metrics.histogram;  (* milliseconds *)
  failed_requests : Metrics.counter;
  quarantined : Metrics.counter;
  brownout_shed : Metrics.counter;  (* arrivals dropped by the priority floor *)
  deadline_misses : Metrics.counter;  (* completions delivered past deadline *)
  cancelled : Metrics.counter;  (* queued hedge losers removed by the cluster *)
  verified_blocks : Metrics.counter;  (* snapshot blocks audited at restore *)
  verify_failures : Metrics.counter;  (* restore-time hash-audit failures *)
  scrub_slices : Metrics.counter;  (* clean idle-scrub slices executed *)
  scrubbed_blocks : Metrics.counter;  (* blocks the idle scrubber checked *)
  scrub_corruptions : Metrics.counter;  (* corruptions the scrubber caught *)
}

type t = {
  engine : Engine.t;
  config : config;
  (* Clock-read-only: series roll on ticks the node already takes, SLOs
     classify completions, the recorder freezes the pre-failure window on
     failure edges. *)
  obs : Obs.t;
  metrics : Metrics.t;  (* [obs.metrics], or a private registry *)
  prefix : string;
  make_strategy : string -> Function_model.spec -> Strategy_intf.t;
  pools : (string, pool) Hashtbl.t;
  brownout : Brownout.t option;
  (* Node-wide gauges mirror the three mutable fields below (the source of
     truth for control decisions) into the registry. *)
  g_used_mb : Metrics.gauge;
  g_high_water_mb : Metrics.gauge;
  g_busy : Metrics.gauge;
  mutable used_mb : int;
  mutable high_water_mb : int;
  mutable busy : int;
  mutable next_container_id : int;
  mutable on_shed : Admission.reason -> Request.t -> unit;
}

let create ?(obs = Obs.none) ?(metrics_prefix = "") engine config ~make_strategy =
  let metrics = match obs.Obs.metrics with Some m -> m | None -> Metrics.create () in
  let g name = Metrics.gauge metrics (metrics_prefix ^ "node." ^ name) in
  {
    engine;
    config;
    obs;
    metrics;
    prefix = metrics_prefix;
    make_strategy;
    pools = Hashtbl.create 16;
    brownout = Option.map (fun cfg -> Brownout.create ?trace:obs.Obs.trace cfg) config.brownout;
    g_used_mb = g "used_mb";
    g_high_water_mb = g "high_water_mb";
    g_busy = g "cores_busy";
    used_mb = 0;
    high_water_mb = 0;
    busy = 0;
    next_container_id = 0;
    on_shed = (fun _ _ -> ());
  }

let metrics t = t.metrics

let trace_emitf t ~what fmt =
  Trace.emitf_opt t.obs.Obs.trace ~at:(Engine.now t.engine) ~category:"node" ~what fmt

let sync_gauges t =
  Metrics.set t.g_used_mb (float_of_int t.used_mb);
  Metrics.set t.g_high_water_mb (float_of_int t.high_water_mb);
  Metrics.set t.g_busy (float_of_int t.busy)

let fn_metric t name field = Printf.sprintf "%snode.%s.%s" t.prefix name field

(* One completion into the windowed series and the SLOs. The per-step
   restore series give each restore phase its own quantile window, so a
   regression in (say) page-copy alone is visible without un-averaging
   the total; their names are built only when a series is attached. *)
let observe_completion t pool ~now ~e2e_ns (inv : Strategy_intf.invocation) =
  let steps =
    match (t.obs.Obs.series, inv.Strategy_intf.breakdown) with
    | Some _, Some b ->
        Some
          (List.map
             (fun (label, ms) -> (fn_metric t pool.fn_name ("restore." ^ label ^ "_ms"), ms))
             (Groundhog_core.Breakdown.steps_ms b))
    | _ -> None
  in
  let ok =
    match inv.Strategy_intf.outcome with
    | Strategy_intf.Completed | Strategy_intf.Poisoned -> true
    | Strategy_intf.Crashed | Strategy_intf.Hung -> false
  in
  Obs.completion t.obs ~now ?steps pool.e2e_name ~e2e_ns ~ok
    ~cold:(inv.Strategy_intf.cold_ns > 0)

let record_failure_edge t ~reason ~detail =
  Obs.failure_edge t.obs ~now:(Engine.now t.engine) ~node:t.prefix ~reason ~detail

let register t ~name spec =
  if Hashtbl.mem t.pools name then invalid_arg "Node.register: duplicate function";
  let pool_on_shed = ref (fun (_ : Admission.reason) (_ : Request.t) (_ : pending) -> ()) in
  let c field = Metrics.counter t.metrics (fn_metric t name field) in
  let e2e_name = fn_metric t name "e2e_ms" in
  let pool =
    {
      fn_name = name;
      spec;
      slots = [];
      queue =
        Admission.create ?trace:t.obs.Obs.trace ~label:name
          ~on_shed:(fun r rq p -> !pool_on_shed r rq p)
          t.config.admission;
      completed = c "completed";
      cold_starts = c "cold_starts";
      evictions = c "evictions";
      e2e_name;
      e2e =
        Metrics.histogram t.metrics e2e_name ~capacity:e2e_reservoir_capacity
          ~seed:(Hashtbl.hash ("node-e2e", name))
          ~sampling:Metrics.All;
      failed_requests = c "failed_requests";
      quarantined = c "quarantined";
      brownout_shed = c "brownout_shed";
      deadline_misses = c "deadline_misses";
      cancelled = c "cancelled";
      verified_blocks = c "verified_blocks";
      verify_failures = c "verify_failures";
      scrub_slices = c "scrub_slices";
      scrubbed_blocks = c "scrubbed_blocks";
      scrub_corruptions = c "scrub_corruptions";
    }
  in
  (pool_on_shed :=
     fun reason req _pending ->
       trace_emitf t ~what:"shed" "%s req#%d (%s)" name req.Request.id
         (Admission.reason_name reason);
       Obs.failure t.obs ~now:(Engine.now t.engine);
       (match t.obs.Obs.spans with
       | Some sp ->
           let now = Engine.now t.engine in
           Span.phase_stop sp ~at:now ~req_id:req.Request.id ~name:"node-queue" ();
           Span.finish_root sp ~at:now
             ~attrs:[ ("outcome", "shed"); ("reason", Admission.reason_name reason) ]
             ~req_id:req.Request.id ()
       | None -> ());
       t.on_shed reason req);
  Hashtbl.replace t.pools name pool

(* Memory a container of this function will pin: the process footprint plus
   whatever the freshly built strategy's manager buffers (the full snapshot
   for eager Groundhog, ~nothing for BASE or incremental mode). *)
let slot_memory_mb spec (strategy : Strategy_intf.t) =
  let pages = spec.Function_model.mapped_pages + strategy.Strategy_intf.snapshot_pages () in
  max 1 (pages * 4096 / 1048576)

(* Push the controller's level to every live container's strategy. A level
   change is rare (hysteresis), so the full sweep is cheap. *)
let apply_brownout t b =
  let degraded = Brownout.defer_restores b in
  trace_emitf t ~what:"brownout" "%s" (Brownout.level_name (Brownout.level b));
  Hashtbl.iter
    (fun _ pool ->
      List.iter
        (fun s -> (Container.strategy s.container).Strategy_intf.degrade degraded)
        pool.slots)
    t.pools

let rec dispatch t pool slot pending =
  (match t.brownout with
  | Some b ->
      (* Queueing delay is the overload signal: sampled at dispatch, fed to
         the hysteretic controller. *)
      let delay = Engine.now t.engine - pending.submitted in
      if Brownout.observe ~at:(Engine.now t.engine) b delay then apply_brownout t b
  | None -> ());
  slot.epoch <- slot.epoch + 1;
  t.busy <- t.busy + 1;
  sync_gauges t;
  (match t.obs.Obs.spans with
  | Some sp ->
      Span.phase_stop sp ~at:(Engine.now t.engine) ~req_id:pending.req.Request.id
        ~name:"node-queue" ()
  | None -> ());
  Container.submit ~dispatch_ns:t.config.dispatch_ns slot.container pending.req
    ~on_response:(fun rq inv ->
      let now = Engine.now t.engine in
      let e2e_ns = now - pending.submitted in
      Metrics.incr pool.completed;
      Metrics.observe pool.e2e (Time_ns.to_ms e2e_ns);
      observe_completion t pool ~now ~e2e_ns inv;
      (match rq.Request.deadline with
      | Some d when now > d -> Metrics.incr pool.deadline_misses
      | _ -> ());
      (match inv.Strategy_intf.verify with
      | Strategy_intf.Unverified -> ()
      | Strategy_intf.Verified blocks -> Metrics.incr ~by:blocks pool.verified_blocks
      | Strategy_intf.Verify_failed _ -> Metrics.incr pool.verify_failures);
      (match t.obs.Obs.spans with
      | Some sp ->
          Span.finish_root sp ~at:now
            ~attrs:
              [
                ("outcome", Strategy_intf.outcome_name inv.Strategy_intf.outcome);
                ("e2e_ns", string_of_int e2e_ns);
              ]
            ~req_id:rq.Request.id ()
      | None -> ());
      match pending.on_complete with Some f -> f rq inv | None -> ())

(* A container just went idle: feed it, retarget the freed core, or start
   the eviction clock. *)
and on_slot_idle t pool slot =
  t.busy <- t.busy - 1;
  sync_gauges t;
  let now = Engine.now t.engine in
  Admission.purge_expired pool.queue ~now;
  if not (Admission.is_empty pool.queue) then begin
    if t.busy < t.config.total_cores then
      match Admission.take pool.queue ~now with
      | Some (_, pending) -> dispatch t pool slot pending
      | None -> ()
    (* else: no core after all (shouldn't happen: one just freed) — the
       backlog stays queued. *)
  end
  else begin
    pump_other_pools t;
    let epoch = slot.epoch in
    Engine.schedule t.engine ~after:t.config.idle_timeout (fun () ->
        if slot.alive && slot.epoch = epoch && Container.is_idle slot.container then
          evict t pool slot)
  end

and evict t pool slot =
  slot.alive <- false;
  pool.slots <- List.filter (fun s -> s != slot) pool.slots;
  (* The strategy's process and snapshot go away with the slot; killing it
     releases whatever it holds elsewhere (notably a dedup registration). *)
  (Container.strategy slot.container).Strategy_intf.kill ();
  Metrics.incr pool.evictions;
  t.used_mb <- t.used_mb - slot.memory_mb;
  sync_gauges t;
  trace_emitf t ~what:"evict" "%s (-%d MB)" pool.fn_name slot.memory_mb;
  (* Freed memory may unblock a queued cold start elsewhere. *)
  pump_other_pools t

(* Quarantine: the container retired itself after a failure (passive
   recovery replaces nothing). Its in-flight episode started with a
   dispatch, so the core is handed back here (the counterpart of
   [on_slot_idle]); memory too. *)
and on_slot_retired t pool slot =
  slot.alive <- false;
  pool.slots <- List.filter (fun s -> s != slot) pool.slots;
  Metrics.incr pool.quarantined;
  record_failure_edge t ~reason:"quarantine" ~detail:pool.fn_name;
  t.used_mb <- t.used_mb - slot.memory_mb;
  t.busy <- t.busy - 1;
  sync_gauges t;
  trace_emitf t ~what:"quarantine" "%s (-%d MB)" pool.fn_name slot.memory_mb;
  pump_pool t pool;
  pump_other_pools t

(* Node containers run passive recovery: a hang wedges its container (no
   timeout fires) and a poisoned one retires itself, which
   [on_slot_retired] accounts for. No request is abandoned, so the
   [failed_requests] counter stays registered at zero; Overload_exp's
   [failed] column reads it. *)
and on_slot_failure t pool failure =
  match failure with
  | Container.Poisoned_restore _ ->
      record_failure_edge t ~reason:"poisoned" ~detail:pool.fn_name
  | Container.Corrupt_snapshot msg ->
      (* The idle scrubber caught a bad snapshot block before any request
         was served from it. The failing container was idle — its core was
         already handed back — but its retirement runs on a core, so claim
         one; [on_slot_retired] releases it again. *)
      record_failure_edge t ~reason:"scrub-corruption" ~detail:msg;
      Metrics.incr pool.scrub_corruptions;
      t.busy <- t.busy + 1;
      sync_gauges t
  | Container.Timed_out _ -> ()

(* Create a new container for [pool] if a core and memory allow; the new
   container pays its initialization on its first request. *)
and try_cold_start t pool =
  if t.busy >= t.config.total_cores then None
  else begin
    let strategy = t.make_strategy pool.fn_name pool.spec in
    let memory_mb = slot_memory_mb pool.spec strategy in
    if t.used_mb + memory_mb > t.config.memory_mb then None
    else begin
      let strategy = Invoker.with_cold_start strategy in
      (* A container born under brownout starts degraded. *)
      (match t.brownout with
      | Some b when Brownout.defer_restores b -> strategy.Strategy_intf.degrade true
      | _ -> ());
      let id = t.next_container_id in
      t.next_container_id <- id + 1;
      (* Passive: hangs wedge their container, poisoned restores retire
         it — fail closed, no replacement. *)
      let container =
        Container.create ~obs:t.obs ~recovery:Container.passive_recovery
          ?scrub:t.config.scrub t.engine ~id strategy
      in
      let slot = { container; memory_mb; epoch = 0; alive = true } in
      Container.set_on_idle container (fun _ -> on_slot_idle t pool slot);
      Container.set_on_failure container (fun _ failure -> on_slot_failure t pool failure);
      Container.set_on_scrub container (fun _ blocks ->
          Metrics.incr pool.scrub_slices;
          Metrics.incr ~by:blocks pool.scrubbed_blocks);
      Container.set_on_retired container (fun _ -> on_slot_retired t pool slot);
      pool.slots <- slot :: pool.slots;
      Metrics.incr pool.cold_starts;
      t.used_mb <- t.used_mb + memory_mb;
      t.high_water_mb <- max t.high_water_mb t.used_mb;
      sync_gauges t;
      trace_emitf t ~what:"cold-start" "%s (+%d MB)" pool.fn_name memory_mb;
      Some slot
    end
  end

and pump_pool t pool =
  let progress = ref true in
  while
    !progress
    &&
    (Admission.purge_expired pool.queue ~now:(Engine.now t.engine);
     not (Admission.is_empty pool.queue))
  do
    progress := false;
    let idle =
      List.find_opt (fun s -> s.alive && Container.is_idle s.container) pool.slots
    in
    let now = Engine.now t.engine in
    match idle with
    | Some slot when t.busy < t.config.total_cores -> (
        match Admission.take pool.queue ~now with
        | Some (_, pending) ->
            dispatch t pool slot pending;
            progress := true
        | None -> ())
    | Some _ -> ()
    | None ->
        (* Brownout prefers waiting for a warm container over paying a cold
           start — unless the pool has none at all, in which case a cold
           start is the only route to progress. *)
        let suppress =
          match t.brownout with
          | Some b -> Brownout.suppress_cold_starts b && pool.slots <> []
          | None -> false
        in
        if not suppress then begin
          match try_cold_start t pool with
          | Some slot -> (
              match Admission.take pool.queue ~now with
              | Some (_, pending) ->
                  dispatch t pool slot pending;
                  progress := true
              | None -> ())
          | None -> ()
        end
  done

and pump_other_pools t = Hashtbl.iter (fun _ pool -> pump_pool t pool) t.pools

let submit ?on_complete t ~name req =
  let pool =
    match Hashtbl.find_opt t.pools name with
    | Some p -> p
    | None -> raise Not_found
  in
  let now = Engine.now t.engine in
  Obs.tick t.obs ~now;
  (match t.obs.Obs.spans with
  | Some sp ->
      ignore
        (Span.ensure_root sp ~at:now ~req_id:req.Request.id
           ~attrs:[ ("principal", req.Request.principal.Principal.name); ("fn", name) ]
           ())
  | None -> ());
  match t.brownout with
  | Some b when Brownout.should_shed b req.Request.principal ->
      (* Priority shed happens before the queue ever sees the request. *)
      Metrics.incr pool.brownout_shed;
      Obs.failure t.obs ~now;
      trace_emitf t ~what:"shed" "%s req#%d (brownout, priority %d)" name req.Request.id
        (Principal.priority req.Request.principal);
      (match t.obs.Obs.spans with
      | Some sp ->
          Span.finish_root sp ~at:now
            ~attrs:[ ("outcome", "shed"); ("reason", "brownout") ]
            ~req_id:req.Request.id ()
      | None -> ());
      t.on_shed Admission.Brownout req
  | _ ->
      if Admission.admit pool.queue ~now req { req; submitted = now; on_complete } then begin
        (match t.obs.Obs.spans with
        | Some sp ->
            Span.phase_start sp ~at:now ~req_id:req.Request.id ~name:"node-queue" ~cat:"queue"
              ()
        | None -> ());
        pump_pool t pool
      end

(* Hedge-loser cancellation: remove a still-queued request silently (no
   shed accounting, no shed hook — it was served elsewhere). Returns false
   when the request is not queued here (already executing or unknown), in
   which case it runs to completion and the cluster discards the response. *)
let cancel t ~name ~req_id =
  match Hashtbl.find_opt t.pools name with
  | None -> false
  | Some pool -> (
      match Admission.cancel pool.queue ~req_id with
      | None -> false
      | Some (_ : pending) ->
          Metrics.incr pool.cancelled;
          trace_emitf t ~what:"cancel" "%s req#%d (hedge loser)" name req_id;
          (match t.obs.Obs.spans with
          | Some sp ->
              Span.phase_stop sp ~at:(Engine.now t.engine) ~req_id ~name:"node-queue" ()
          | None -> ());
          true)

(* Idle warm containers for [name] — the snapshot-warm-aware placement
   signal: a dispatch here skips both the cold start and the queue. *)
let warm_idle t ~name =
  match Hashtbl.find_opt t.pools name with
  | None -> 0
  | Some pool ->
      List.fold_left
        (fun n s -> if s.alive && Container.is_idle s.container then n + 1 else n)
        0 pool.slots

let set_on_shed t f = t.on_shed <- f
let brownout_escalations t =
  match t.brownout with Some b -> Brownout.escalations b | None -> 0

let stats t =
  Hashtbl.fold
    (fun _ pool acc ->
      ({
         fn_name = pool.fn_name;
         completed = Metrics.counter_value pool.completed;
         cold_starts = Metrics.counter_value pool.cold_starts;
         evictions = Metrics.counter_value pool.evictions;
         queue_len = Admission.length pool.queue;
         containers = List.length pool.slots;
         e2e_ms = Metrics.values pool.e2e;
         failed_requests = Metrics.counter_value pool.failed_requests;
         quarantined = Metrics.counter_value pool.quarantined;
         shed = Admission.shed_count pool.queue + Metrics.counter_value pool.brownout_shed;
         expired = Admission.expired_count pool.queue;
         deadline_misses = Metrics.counter_value pool.deadline_misses;
         queue_high_water = Admission.high_water pool.queue;
         cancelled = Metrics.counter_value pool.cancelled;
       }
        : fn_stats)
      :: acc)
    t.pools []
  |> List.sort (fun (a : fn_stats) (b : fn_stats) -> compare a.fn_name b.fn_name)

let memory_used_mb t = t.used_mb
let memory_high_water_mb t = t.high_water_mb
let cores_busy t = t.busy
let total_cold_starts t =
  Hashtbl.fold (fun _ p n -> n + Metrics.counter_value p.cold_starts) t.pools 0

let total_evictions t =
  Hashtbl.fold (fun _ p n -> n + Metrics.counter_value p.evictions) t.pools 0

let total_shed t =
  Hashtbl.fold
    (fun _ p n ->
      n + Admission.shed_count p.queue + Metrics.counter_value p.brownout_shed)
    t.pools 0

let total_expired t =
  Hashtbl.fold (fun _ p n -> n + Admission.expired_count p.queue) t.pools 0

let total_deadline_misses t =
  Hashtbl.fold (fun _ p n -> n + Metrics.counter_value p.deadline_misses) t.pools 0
