(* A fleet of invoker nodes behind one front door, with the management
   plane that keeps requests flowing when nodes misbehave: heartbeat
   health checking (drain -> quarantine -> rejoin), per-node circuit
   breakers, restart supervision, deadline-aware failover retries, and
   hedged requests with loser cancellation.

   Everything observable is deterministic under a fixed seed: node-level
   faults come from the shared {!Gh_sim.Fault} plan (each site its own
   stream), faults are drawn in member-id order on each heartbeat tick,
   and the engine's FIFO tie-break fixes the rest.

   Crash modeling: a crashed member keeps its [Node.t] — the simulation
   events that object already scheduled still run — but its [epoch] is
   bumped, and every response or dispatch is tagged with the epoch it
   started under. An epoch mismatch at delivery time means the work died
   with the node: the response is dropped (counted [lost_responses]),
   never delivered. A restart installs a fresh [Node.t] (the warm pool is
   genuinely gone) against the same metrics registry, so per-node
   counters are cumulative across incarnations.

   Exactly-once delivery: a request's [settled] flag flips at most once —
   on the first valid response or on final failure. Later responses from
   hedges, retries, or timed-out attempts are counted [wasted_responses]
   and suppressed. Conservation invariant (tested): total node
   completions = served-by-response + wasted + lost. *)

module Engine = Gh_sim.Engine
module Time_ns = Gh_sim.Time_ns
module Trace = Gh_sim.Trace
module Span = Gh_sim.Span
module Metrics = Gh_sim.Metrics
module Rng = Gh_sim.Rng
module Fault = Gh_sim.Fault
module Obs = Gh_sim.Obs

type placement = Round_robin | Least_loaded | Warm_aware

let placement_name = function
  | Round_robin -> "round-robin"
  | Least_loaded -> "least-loaded"
  | Warm_aware -> "warm-aware"

type config = {
  n_nodes : int;
  node : Node.config;
  placement : placement;
  failover : bool;
  hb_interval : Time_ns.t;
  hang_ns : Time_ns.t;
  response_timeout : Time_ns.t;
  max_attempts : int;
  hedge_after : Time_ns.t option;
  restart_ns : Time_ns.t;
  health : Health.config;
  breaker : Breaker.config;
}

(* One controller-side dispatch of one request to one member, pinned to
   the member epoch it was sent under. [a_done] flips exactly once —
   response, timeout, or successful cancellation — and decrements the
   member's inflight gauge when it does. *)
type attempt = {
  a_member : int;
  a_epoch : int;
  mutable a_done : bool;
  a_span : Span.record option;  (* open attempt span, closed at conclusion *)
}

type rstate = {
  r_req : Request.t;
  r_name : string;
  r_respond : Request.t -> Strategy_intf.invocation -> unit;
  r_submit : Time_ns.t;
  r_root : Span.record option;  (* cluster-owned request root *)
  mutable r_outcome : string;  (* root [outcome] attr, set when settled *)
  mutable r_settled : bool;  (* delivered or finally failed; at most once *)
  mutable r_dispatches : int;
  mutable r_attempts : attempt list;  (* newest first *)
  mutable r_first_fail : Time_ns.t option;  (* first timeout/shed: failover clock *)
}

type member = {
  m_id : int;
  mutable node : Node.t;
  mutable epoch : int;  (* bumped on every death; guards stale deliveries *)
  mutable up : bool;
  mutable hung_until : Time_ns.t;  (* messages in/out held until then *)
  mutable down_since : Time_ns.t;  (* -1 when up; feeds the downtime span *)
  mutable restarting : bool;
  mutable inflight : int;  (* outstanding cluster attempts, all epochs *)
  health : Health.t;
  breaker : Breaker.t;
  g_health : Metrics.gauge;
  g_breaker : Metrics.gauge;
  g_inflight : Metrics.gauge;
  g_up : Metrics.gauge;
}

type t = {
  engine : Engine.t;
  config : config;
  obs : Obs.t;  (* the front door's collectors *)
  metrics : Metrics.t;  (* [obs.metrics], or a private registry *)
  fault : Fault.t;
  new_node : int -> Node.t;  (* member [i]'s next incarnation, unregistered *)
  members : member array;
  mutable fns : (string * Function_model.spec) list;  (* newest first *)
  requests : (int, rstate) Hashtbl.t;
  mutable rr : int;  (* round-robin cursor *)
  mutable submitted : int;
  mutable on_failed : Request.t -> unit;
  c_served : Metrics.counter;
  c_late_served : Metrics.counter;
  c_failed : Metrics.counter;
  c_retries : Metrics.counter;
  c_hedges : Metrics.counter;
  c_hedge_cancelled : Metrics.counter;
  c_wasted : Metrics.counter;
  c_lost : Metrics.counter;
  c_msg_lost : Metrics.counter;
  c_timeouts : Metrics.counter;
  c_crashes : Metrics.counter;
  c_hangs : Metrics.counter;
  c_restarts : Metrics.counter;
  h_failover_ms : Metrics.histogram;
}

let trace_emitf t ~what fmt =
  Trace.emitf_opt t.obs.Obs.trace ~at:(Engine.now t.engine) ~category:"cluster" ~what fmt

(* Node lifecycle transitions get their own category so a timeline can
   filter the fleet's story from the per-request noise. *)
let lifecycle_emitf t ~what fmt =
  Trace.emitf_opt t.obs.Obs.trace ~at:(Engine.now t.engine) ~category:"lifecycle" ~what fmt

(* Observability is strictly read-only on the timeline: lazy series
   rolls, SLO bucket arithmetic and recorder snapshots all happen at call
   sites that already hold the clock — no engine events, no RNG draws. *)
let record_failure_edge t ~node ~reason ~detail =
  Obs.failure_edge t.obs ~now:(Engine.now t.engine) ~node ~reason ~detail

(* ---- request bookkeeping ---------------------------------------------- *)

let conclude ?(outcome = "done") t a =
  if not a.a_done then begin
    a.a_done <- true;
    let m = t.members.(a.a_member) in
    m.inflight <- m.inflight - 1;
    Metrics.set m.g_inflight (float_of_int m.inflight);
    match (t.obs.Obs.spans, a.a_span) with
    | Some sp, Some rec_ ->
        Span.finish sp ~at:(Engine.now t.engine) ~attrs:[ ("outcome", outcome) ] rec_
    | _ -> ()
  end

(* Drop the table entry once nothing can reference the request again:
   settled, and every attempt concluded. The request root closes here —
   the per-track watermark stretches it over attempts concluded after
   the settle (hedge losers, late timeouts), so {!Span.check} holds. *)
let maybe_forget t rs =
  if rs.r_settled && List.for_all (fun a -> a.a_done) rs.r_attempts then begin
    (match (t.obs.Obs.spans, rs.r_root) with
    | Some sp, Some _ ->
        Span.finish_root sp ~at:(Engine.now t.engine)
          ~attrs:[ ("outcome", rs.r_outcome) ]
          ~req_id:rs.r_req.Request.id ()
    | _ -> ());
    Hashtbl.remove t.requests rs.r_req.Request.id
  end

let final_fail t rs reason =
  if not rs.r_settled then begin
    rs.r_settled <- true;
    rs.r_outcome <- "failed:" ^ reason;
    Metrics.incr t.c_failed;
    trace_emitf t ~what:"fail" "req#%d abandoned (%s)" rs.r_req.Request.id reason;
    Obs.failure t.obs ~now:(Engine.now t.engine);
    t.on_failed rs.r_req;
    maybe_forget t rs
  end

(* ---- placement -------------------------------------------------------- *)

(* Members this request may be dispatched to right now. With failover on,
   the management plane filters: only Healthy members whose breaker admits
   traffic. With failover off the controller is blind — crashed nodes
   still receive (and lose) dispatches. Either way a member already
   holding an outstanding attempt of this request is excluded, so a hedge
   never doubles up on one node. *)
let candidates t rs ~now =
  Array.to_list t.members
  |> List.filter (fun m ->
         (not
            (List.exists (fun a -> (not a.a_done) && a.a_member = m.m_id) rs.r_attempts))
         && ((not t.config.failover)
            || (Health.accepts_traffic m.health && Breaker.ready m.breaker ~now)))

let least_loaded pool =
  match pool with
  | [] -> invalid_arg "Cluster.least_loaded: empty"
  | hd :: tl ->
      List.fold_left
        (fun best m ->
          if m.inflight < best.inflight || (m.inflight = best.inflight && m.m_id < best.m_id)
          then m
          else best)
        hd tl

let pick t rs ~now =
  match candidates t rs ~now with
  | [] -> None
  | cands ->
      (* Prefer a member this request has never tried: a retry on the node
         that just failed it learns nothing. *)
      let tried = List.map (fun a -> a.a_member) rs.r_attempts in
      let untried = List.filter (fun m -> not (List.mem m.m_id tried)) cands in
      let pool = if untried <> [] then untried else cands in
      let chosen =
        match t.config.placement with
        | Round_robin ->
            let n = Array.length t.members in
            let rec go k =
              if k >= n then List.hd pool
              else
                let id = (t.rr + k) mod n in
                match List.find_opt (fun m -> m.m_id = id) pool with
                | Some m ->
                    t.rr <- (id + 1) mod n;
                    m
                | None -> go (k + 1)
            in
            go 0
        | Least_loaded -> least_loaded pool
        | Warm_aware ->
            (* A node holding an idle warm container serves without a cold
               start or queueing; fall back to load otherwise. *)
            let warm =
              List.filter (fun m -> Node.warm_idle m.node ~name:rs.r_name > 0) pool
            in
            least_loaded (if warm <> [] then warm else pool)
      in
      Some chosen

(* ---- dispatch / response / failover ----------------------------------- *)

let rec dispatch ?(hedge = false) t rs m =
  let now = Engine.now t.engine in
  if t.config.failover then Breaker.on_dispatch m.breaker ~now;
  m.inflight <- m.inflight + 1;
  Metrics.set m.g_inflight (float_of_int m.inflight);
  rs.r_dispatches <- rs.r_dispatches + 1;
  (* The placement decision itself is an instant span under the root;
     the attempt span then covers the dispatch until it concludes. *)
  (match (t.obs.Obs.spans, rs.r_root) with
  | Some sp, Some root ->
      ignore
        (Span.complete sp ~start:now ~stop:now ~parent:root ~name:"place" ~cat:"cluster"
           ~attrs:
             [
               ("placement", placement_name t.config.placement);
               ("node", Printf.sprintf "n%d" m.m_id);
               ("attempt", string_of_int rs.r_dispatches);
               ("hedge", string_of_bool hedge);
             ]
           ())
  | _ -> ());
  let a_span =
    match (t.obs.Obs.spans, rs.r_root) with
    | Some sp, Some root ->
        Some
          (Span.start sp ~at:now ~parent:root
             ~name:(Printf.sprintf "attempt-%d" rs.r_dispatches)
             ~cat:"cluster"
             ~attrs:
               [
                 ("node", Printf.sprintf "n%d" m.m_id);
                 ("epoch", string_of_int m.epoch);
                 ("hedge", string_of_bool hedge);
               ]
             ())
    | _ -> None
  in
  let a = { a_member = m.m_id; a_epoch = m.epoch; a_done = false; a_span } in
  rs.r_attempts <- a :: rs.r_attempts;
  trace_emitf t ~what:"dispatch" "req#%d -> n%d (attempt %d)" rs.r_req.Request.id m.m_id
    rs.r_dispatches;
  (if Fault.fire t.fault Fault.Cluster_msg_loss then begin
     (* The dispatch message never reaches the node; with failover on the
        response timeout recovers, with it off the request is stranded. *)
     Metrics.incr t.c_msg_lost;
     trace_emitf t ~what:"msg-loss" "req#%d -> n%d dropped" rs.r_req.Request.id m.m_id
   end
   else begin
     let deliver () =
       if m.up && m.epoch = a.a_epoch then
         Node.submit m.node ~name:rs.r_name rs.r_req ~on_complete:(fun rq inv ->
             on_node_response t rs a rq inv)
       else begin
         (* The node died before the dispatch arrived. *)
         Metrics.incr t.c_msg_lost;
         trace_emitf t ~what:"msg-loss" "req#%d -> n%d (node dead)" rs.r_req.Request.id
           m.m_id
       end
     in
     if m.hung_until > now then Engine.at t.engine ~time:m.hung_until deliver
     else deliver ()
   end);
  if t.config.failover then
    Engine.schedule t.engine ~after:t.config.response_timeout (fun () ->
        on_attempt_timeout t rs a)

(* A response left the node. It may be stale (pre-crash epoch), late
   (after its attempt timed out), or redundant (a hedge lost the race);
   exactly one response per request ever reaches the client. *)
and on_node_response t rs a rq inv =
  let m = t.members.(a.a_member) in
  let now = Engine.now t.engine in
  if m.hung_until > now then
    (* A hung node holds its responses too; they flush when it wakes. *)
    Engine.at t.engine ~time:m.hung_until (fun () -> on_node_response t rs a rq inv)
  else begin
    (if a.a_epoch <> m.epoch || not m.up then begin
       (* The work finished on an incarnation that has since died: the
          response died with it. Concluding here disarms the pending
          response timeout, so failover must happen now, not then. *)
       Metrics.incr t.c_lost;
       conclude ~outcome:"lost" t a;
       if t.config.failover && not rs.r_settled then begin
         if rs.r_first_fail = None then rs.r_first_fail <- Some now;
         try_redispatch t rs
       end
     end
     else begin
       if t.config.failover then Breaker.record_success m.breaker;
       let late = a.a_done in
       let outcome = if rs.r_settled then "wasted" else "win" in
       conclude ~outcome t a;
       if rs.r_settled then Metrics.incr t.c_wasted
       else begin
         rs.r_settled <- true;
         rs.r_outcome <- "served";
         Metrics.incr t.c_served;
         if late then Metrics.incr t.c_late_served;
         (match rs.r_first_fail with
         | Some tf -> Metrics.observe t.h_failover_ms (Time_ns.to_ms (now - tf))
         | None -> ());
         Obs.completion t.obs ~now "cluster.e2e_ms" ~e2e_ns:(now - rs.r_submit) ~ok:true
           ~cold:(inv.Strategy_intf.cold_ns > 0);
         cancel_losers t rs;
         rs.r_respond rq inv
       end
     end);
    maybe_forget t rs
  end

(* The race is decided: remove still-queued duplicate attempts silently.
   An already-executing loser cannot be recalled — it runs to completion
   and its response is counted wasted above. *)
and cancel_losers t rs =
  List.iter
    (fun a ->
      if not a.a_done then begin
        let m = t.members.(a.a_member) in
        if
          m.up && m.epoch = a.a_epoch
          && Node.cancel m.node ~name:rs.r_name ~req_id:rs.r_req.Request.id
        then begin
          Metrics.incr t.c_hedge_cancelled;
          conclude ~outcome:"cancelled" t a
        end
      end)
    rs.r_attempts

and on_attempt_timeout t rs a =
  if not a.a_done then begin
    conclude ~outcome:"timeout" t a;
    if not rs.r_settled then begin
      let now = Engine.now t.engine in
      Metrics.incr t.c_timeouts;
      if rs.r_first_fail = None then rs.r_first_fail <- Some now;
      let m = t.members.(a.a_member) in
      if t.config.failover then Breaker.record_failure m.breaker ~now;
      trace_emitf t ~what:"timeout" "req#%d on n%d (attempt of epoch %d)"
        rs.r_req.Request.id m.m_id a.a_epoch;
      try_redispatch t rs
    end
  end;
  maybe_forget t rs

(* Failover: re-dispatch a request none of whose attempts are still
   outstanding — within the attempt budget and never past the deadline. *)
and try_redispatch t rs =
  if not rs.r_settled then begin
    let now = Engine.now t.engine in
    if not (List.exists (fun a -> not a.a_done) rs.r_attempts) then begin
      if Request.expired rs.r_req ~now then final_fail t rs "deadline"
      else if rs.r_dispatches >= t.config.max_attempts then final_fail t rs "attempts"
      else
        match pick t rs ~now with
        | Some m ->
            Metrics.incr t.c_retries;
            dispatch t rs m
        | None -> (
            (* Nowhere to go right now. With a deadline the wait is bounded
               (each re-check can end in [final_fail "deadline"]); without
               one, waiting could chain forever — fail fast instead. *)
            match rs.r_req.Request.deadline with
            | None -> final_fail t rs "unrouteable"
            | Some _ ->
                Engine.schedule t.engine ~after:t.config.hb_interval (fun () ->
                    try_redispatch t rs))
    end
  end

and on_node_shed t m reason req =
  match Hashtbl.find_opt t.requests req.Request.id with
  | None -> ()
  | Some rs ->
      (match
         List.find_opt (fun a -> (not a.a_done) && a.a_member = m.m_id) rs.r_attempts
       with
      | Some a -> conclude ~outcome:"shed" t a
      | None -> ());
      (if not rs.r_settled then
         match reason with
         | Admission.Expired ->
             (* The deadline passed while queued: no node can help now. *)
             final_fail t rs "expired"
         | Admission.Capacity | Admission.Brownout ->
             (* Node-local overload, not node failure: fail over without a
                breaker penalty — after one heartbeat, so an overloaded
                fleet drains instead of ping-ponging the same request
                between saturated queues within one instant. Without the
                management plane a shed is simply a failure. *)
             if rs.r_first_fail = None then
               rs.r_first_fail <- Some (Engine.now t.engine);
             if t.config.failover then
               Engine.schedule t.engine ~after:t.config.hb_interval (fun () ->
                   try_redispatch t rs)
             else final_fail t rs "shed");
      maybe_forget t rs

(* ---- fleet lifecycle -------------------------------------------------- *)

and fresh_node t m =
  let node = t.new_node m.m_id in
  List.iter (fun (name, spec) -> Node.register node ~name spec) (List.rev t.fns);
  Node.set_on_shed node (fun reason req -> on_node_shed t m reason req);
  node

let kill t m ~why =
  m.up <- false;
  m.epoch <- m.epoch + 1;
  m.down_since <- Engine.now t.engine;
  Metrics.set m.g_up 0.0;
  lifecycle_emitf t ~what:why "n%d down (epoch %d)" m.m_id m.epoch

let crash t m =
  Metrics.incr t.c_crashes;
  kill t m ~why:"crash"

(* Restart supervision (failover on): a fresh incarnation replaces the
   node — warm pool, queue and in-flight work of the old one are gone.
   Metrics counters continue (same registry names), so per-node counts
   are cumulative across incarnations. *)
let restart t m =
  let now = Engine.now t.engine in
  m.epoch <- m.epoch + 1;
  m.up <- true;
  m.hung_until <- 0;
  m.restarting <- false;
  m.node <- fresh_node t m;
  Metrics.incr t.c_restarts;
  Metrics.set m.g_up 1.0;
  (match t.obs.Obs.spans with
  | Some sp when m.down_since >= 0 ->
      ignore
        (Span.complete sp ~start:m.down_since ~stop:now
           ~track:(900_000 + m.m_id)
           ~name:(Printf.sprintf "n%d-down" m.m_id)
           ~cat:"cluster" ())
  | _ -> ());
  m.down_since <- -1;
  lifecycle_emitf t ~what:"restart" "n%d up (epoch %d)" m.m_id m.epoch

let on_health_transition t m prev next =
  Metrics.set m.g_health (float_of_int (Health.state_index next));
  lifecycle_emitf t ~what:"health" "n%d %s -> %s" m.m_id (Health.state_name prev)
    (Health.state_name next);
  if next = Health.Quarantined then
    record_failure_edge t
      ~node:(Printf.sprintf "n%d" m.m_id)
      ~reason:"quarantine"
      ~detail:(Printf.sprintf "%s -> %s" (Health.state_name prev) (Health.state_name next));
  if t.config.failover && next = Health.Quarantined && not m.restarting then begin
    m.restarting <- true;
    (* Presumed dead. If it was actually alive (hang, partition) the
       supervisor kills it anyway — in-flight work is lost either way. *)
    if m.up then kill t m ~why:"kill";
    Engine.schedule t.engine ~after:t.config.restart_ns (fun () -> restart t m)
  end

(* One heartbeat interval: draw environment faults and observe heartbeats,
   in member-id order so the fault streams replay identically. A hung or
   dead node sends nothing; [Heartbeat_drop] is drawn only for heartbeats
   actually sent (its nth-occurrence rule means "the nth heartbeat"). *)
let rec tick t ~until () =
  let now = Engine.now t.engine in
  (* Roll the series window and re-evaluate burn rates every heartbeat,
     so alerts fire (and clear) even while no requests complete. *)
  Obs.heartbeat t.obs ~now;
  Array.iter
    (fun m ->
      (* Draw for every member, dead or alive (a draw on a dead member is
         a no-op): the occurrence index then advances n_nodes per tick
         unconditionally, so member j's draw on tick k (1-based) is
         occurrence (k-1)*n_nodes + j + 1 — and both failover arms of an
         experiment replay the same fault schedule even after their fleet
         histories diverge. *)
      let crash_draw = Fault.fire t.fault Fault.Node_crash in
      let hang_draw = Fault.fire t.fault Fault.Node_hang in
      if m.up && crash_draw then crash t m;
      if m.up && m.hung_until <= now && hang_draw then begin
        m.hung_until <- now + t.config.hang_ns;
        Metrics.incr t.c_hangs;
        lifecycle_emitf t ~what:"hang" "n%d until %d" m.m_id m.hung_until
      end;
      if t.config.failover then begin
        let sends = m.up && m.hung_until <= now in
        let beat = sends && not (Fault.fire t.fault Fault.Heartbeat_drop) in
        if beat then Health.beat m.health else Health.miss m.health;
        (* The transition hook alone would miss a node that dies again
           while still Quarantined (no edge fires): any down member the
           checker presumes dead gets a supervisor, exactly once. *)
        if (not m.up) && (not m.restarting) && Health.presumed_dead m.health then begin
          m.restarting <- true;
          Engine.schedule t.engine ~after:t.config.restart_ns (fun () -> restart t m)
        end
      end)
    t.members;
  let next = now + t.config.hb_interval in
  if next <= until then Engine.at t.engine ~time:next (tick t ~until)

(* ---- construction / API ---------------------------------------------- *)

let create ?(obs = Obs.none) ?rng ?(fault = Fault.none) engine config ~make_strategy =
  if config.n_nodes < 1 then invalid_arg "Cluster.create: n_nodes must be >= 1";
  if config.max_attempts < 1 then invalid_arg "Cluster.create: max_attempts must be >= 1";
  let metrics = match obs.Obs.metrics with Some m -> m | None -> Metrics.create () in
  (* Members count into the shared registry and share the trace, series
     and recorder. The front door alone owns the spans (hedged duplicates
     would collide on per-request phase keys inside the nodes) and the
     SLOs (a request is judged once, where the client sees it). *)
  let node_obs = { obs with Obs.metrics = Some metrics; spans = None; slos = [] } in
  let new_node i =
    Node.create ~obs:node_obs ~metrics_prefix:(Printf.sprintf "n%d." i) engine config.node
      ~make_strategy
  in
  let c name = Metrics.counter metrics ("cluster." ^ name) in
  let members =
    Array.init config.n_nodes (fun i ->
        let g name = Metrics.gauge metrics (Printf.sprintf "cluster.n%d.%s" i name) in
        let breaker_rng =
          Option.map (fun r -> Rng.named_split r (Printf.sprintf "breaker-%d" i)) rng
        in
        let node = new_node i in
        {
          m_id = i;
          node;
          epoch = 0;
          up = true;
          hung_until = 0;
          down_since = -1;
          restarting = false;
          inflight = 0;
          health = Health.create config.health;
          breaker = Breaker.create ?rng:breaker_rng config.breaker;
          g_health = g "health";
          g_breaker = g "breaker";
          g_inflight = g "inflight";
          g_up = g "up";
        })
  in
  let t =
    {
      engine;
      config;
      obs;
      metrics;
      fault;
      new_node;
      members;
      fns = [];
      requests = Hashtbl.create 256;
      rr = 0;
      submitted = 0;
      on_failed = ignore;
      c_served = c "served";
      c_late_served = c "late_served";
      c_failed = c "failed";
      c_retries = c "retries";
      c_hedges = c "hedges";
      c_hedge_cancelled = c "hedge_cancelled";
      c_wasted = c "wasted_responses";
      c_lost = c "lost_responses";
      c_msg_lost = c "msg_lost";
      c_timeouts = c "attempt_timeouts";
      c_crashes = c "crashes";
      c_hangs = c "hangs";
      c_restarts = c "restarts";
      h_failover_ms =
        Metrics.histogram metrics "cluster.failover_ms" ~capacity:8192
          ~seed:(Hashtbl.hash "cluster-failover")
          ~sampling:Metrics.All;
    }
  in
  Array.iter
    (fun m ->
      Node.set_on_shed m.node (fun reason req -> on_node_shed t m reason req);
      Health.set_on_transition m.health (fun prev next -> on_health_transition t m prev next);
      Breaker.set_on_transition m.breaker (fun prev next ->
          Metrics.set m.g_breaker (float_of_int (Breaker.state_index next));
          lifecycle_emitf t ~what:"breaker" "n%d %s -> %s" m.m_id (Breaker.state_name prev)
            (Breaker.state_name next);
          if next = Breaker.Open then
            record_failure_edge t
              ~node:(Printf.sprintf "n%d" m.m_id)
              ~reason:"breaker-open"
              ~detail:
                (Printf.sprintf "%s -> %s" (Breaker.state_name prev)
                   (Breaker.state_name next)));
      Metrics.set m.g_health 0.0;
      Metrics.set m.g_breaker 0.0;
      Metrics.set m.g_inflight 0.0;
      Metrics.set m.g_up 1.0)
    t.members;
  t

let register t ~name spec =
  if List.mem_assoc name t.fns then invalid_arg "Cluster.register: duplicate function";
  t.fns <- (name, spec) :: t.fns;
  Array.iter (fun m -> Node.register m.node ~name spec) t.members

let start t ~until =
  let first = Engine.now t.engine + t.config.hb_interval in
  if first <= until then Engine.at t.engine ~time:first (tick t ~until)

let submit t ~name req ~on_response =
  if not (List.mem_assoc name t.fns) then raise Not_found;
  t.submitted <- t.submitted + 1;
  let now = Engine.now t.engine in
  let root =
    match t.obs.Obs.spans with
    | None -> None
    | Some sp ->
        Some
          (Span.ensure_root sp ~at:now ~req_id:req.Request.id
             ~attrs:
               [ ("principal", req.Request.principal.Principal.name); ("fn", name) ]
             ())
  in
  let rs =
    {
      r_req = req;
      r_name = name;
      r_respond = on_response;
      r_submit = now;
      r_root = root;
      r_outcome = "pending";
      r_settled = false;
      r_dispatches = 0;
      r_attempts = [];
      r_first_fail = None;
    }
  in
  Hashtbl.replace t.requests req.Request.id rs;
  (match pick t rs ~now with
  | Some m -> dispatch t rs m
  | None -> (
      match req.Request.deadline with
      | None -> final_fail t rs "unrouteable"
      | Some _ -> Engine.schedule t.engine ~after:t.config.hb_interval (fun () ->
          try_redispatch t rs)));
  match t.config.hedge_after with
  | Some d when t.config.failover ->
      Engine.schedule t.engine ~after:d (fun () ->
          let now = Engine.now t.engine in
          if
            (not rs.r_settled)
            && rs.r_dispatches = 1
            && rs.r_dispatches < t.config.max_attempts
            && not (Request.expired rs.r_req ~now)
          then
            match pick t rs ~now with
            | Some m ->
                Metrics.incr t.c_hedges;
                trace_emitf t ~what:"hedge" "req#%d -> n%d" rs.r_req.Request.id m.m_id;
                dispatch ~hedge:true t rs m
            | None -> ())
  | _ -> ()

let set_on_failed t f = t.on_failed <- f
let metrics t = t.metrics

(* ---- observation ------------------------------------------------------ *)

type member_view = {
  mv_id : int;
  mv_up : bool;
  mv_health : Health.state;
  mv_breaker : Breaker.state;
  mv_inflight : int;
  mv_epoch : int;
}

let member_views t =
  Array.to_list t.members
  |> List.map (fun m ->
         {
           mv_id = m.m_id;
           mv_up = m.up;
           mv_health = Health.state m.health;
           mv_breaker = Breaker.state m.breaker;
           mv_inflight = m.inflight;
           mv_epoch = m.epoch;
         })

type stats = {
  submitted : int;
  served : int;
  late_served : int;
  failed : int;
  retries : int;
  hedges : int;
  hedge_cancelled : int;
  wasted_responses : int;
  lost_responses : int;
  msg_lost : int;
  attempt_timeouts : int;
  crashes : int;
  hangs : int;
  restarts : int;
  node_completions : int;
  inflight : int;
  pending_requests : int;
  failover_ms : float list;
}

let stats t =
  let v = Metrics.counter_value in
  let node_completions =
    Array.fold_left
      (fun acc m ->
        List.fold_left (fun n (s : Node.fn_stats) -> n + s.Node.completed) acc
          (Node.stats m.node))
      0 t.members
  in
  {
    submitted = t.submitted;
    served = v t.c_served;
    late_served = v t.c_late_served;
    failed = v t.c_failed;
    retries = v t.c_retries;
    hedges = v t.c_hedges;
    hedge_cancelled = v t.c_hedge_cancelled;
    wasted_responses = v t.c_wasted;
    lost_responses = v t.c_lost;
    msg_lost = v t.c_msg_lost;
    attempt_timeouts = v t.c_timeouts;
    crashes = v t.c_crashes;
    hangs = v t.c_hangs;
    restarts = v t.c_restarts;
    node_completions;
    inflight = Array.fold_left (fun n (m : member) -> n + m.inflight) 0 t.members;
    pending_requests = Hashtbl.length t.requests;
    failover_ms = Metrics.values t.h_failover_ms;
  }
