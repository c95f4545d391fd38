(* The cluster fault-tolerance layer: health suspicion, circuit breakers,
   the shared recovery backoff, hedge-loser cancellation, deterministic
   node-crash failover, and the exactly-once delivery contract under
   random node faults (QCheck). *)

module Engine = Gh_sim.Engine
module Time_ns = Gh_sim.Time_ns
module Rng = Gh_sim.Rng
module Fault = Gh_sim.Fault
module Metrics = Gh_sim.Metrics
module Fm = Gh_faas.Function_model
module Intf = Gh_faas.Strategy_intf
module Request = Gh_faas.Request
module Admission = Gh_faas.Admission
module Backoff = Gh_faas.Backoff
module Container = Gh_faas.Container
module Breaker = Gh_faas.Breaker
module Health = Gh_faas.Health
module Node = Gh_faas.Node
module Cluster = Gh_faas.Cluster
module Span = Gh_sim.Span

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let alice = Gh_faas.Principal.make ~id:1 ~name:"alice"

(* -- Health: the drain -> quarantine -> rejoin lifecycle -- *)

let test_health_lifecycle () =
  let h = Health.create Health.default_config in
  check_bool "starts healthy" true (Health.accepts_traffic h);
  Health.miss h;
  check_bool "one miss tolerated" true (Health.state h = Health.Healthy);
  Health.miss h;
  check_bool "suspect_after misses drain" true (Health.state h = Health.Draining);
  check_bool "draining takes no traffic" false (Health.accepts_traffic h);
  check_bool "draining is not dead" false (Health.presumed_dead h);
  Health.miss h;
  Health.miss h;
  check_bool "quarantine_after misses quarantine" true (Health.presumed_dead h);
  Health.beat h;
  check_bool "first beat starts probation" true (Health.state h = Health.Rejoining);
  check_bool "probation takes no traffic" false (Health.accepts_traffic h);
  Health.beat h;
  check_bool "rejoin_after beats restore traffic" true (Health.accepts_traffic h);
  check_int "four transitions" 4 (Health.transitions h)

let test_health_flap_resistance () =
  (* A draining node that beats returns directly (nothing was torn down);
     a rejoining node that misses goes straight back to quarantine. *)
  let h = Health.create Health.default_config in
  Health.miss h;
  Health.miss h;
  check_bool "draining" true (Health.state h = Health.Draining);
  Health.beat h;
  check_bool "beat undrains without probation" true (Health.accepts_traffic h);
  Health.miss h;
  Health.miss h;
  Health.miss h;
  Health.miss h;
  Health.beat h;
  check_bool "rejoining" true (Health.state h = Health.Rejoining);
  Health.miss h;
  check_bool "probation failure re-quarantines" true (Health.presumed_dead h);
  (try
     ignore (Health.create { Health.suspect_after = 3; quarantine_after = 3; rejoin_after = 1 });
     Alcotest.fail "suspect_after >= quarantine_after must raise"
   with Invalid_argument _ -> ())

(* -- Breaker: closed / open / half-open with capped-backoff probes -- *)

let test_breaker_trip_probe_close () =
  let b = Breaker.create Breaker.default_config in
  let now = 0 in
  check_bool "closed admits" true (Breaker.ready b ~now);
  Breaker.record_failure b ~now;
  Breaker.record_failure b ~now;
  Breaker.record_success b;
  Breaker.record_failure b ~now;
  Breaker.record_failure b ~now;
  check_bool "success resets the run" true (Breaker.state b = Breaker.Closed);
  Breaker.record_failure b ~now;
  check_bool "threshold consecutive failures trip" true (Breaker.state b = Breaker.Open);
  check_int "one open" 1 (Breaker.opens b);
  check_bool "open rejects before the dwell" false (Breaker.ready b ~now);
  let dwell = Backoff.delay Breaker.default_config.Breaker.probe_backoff ~attempt:1 in
  check_bool "dwell elapsed admits the probe" true (Breaker.ready b ~now:dwell);
  Breaker.on_dispatch b ~now:dwell;
  check_bool "probe consumes the slot" true (Breaker.state b = Breaker.Half_open);
  check_bool "no second probe" false (Breaker.ready b ~now:dwell);
  Breaker.record_success b;
  check_bool "successful probe closes" true (Breaker.state b = Breaker.Closed)

let test_breaker_failed_probe_longer_dwell () =
  let b = Breaker.create { Breaker.failure_threshold = 1; probe_backoff = Backoff.recovery } in
  Breaker.record_failure b ~now:0;
  let d1 = Backoff.delay Backoff.recovery ~attempt:1 in
  Breaker.on_dispatch b ~now:d1;
  Breaker.record_failure b ~now:d1;
  check_bool "failed probe re-opens" true (Breaker.state b = Breaker.Open);
  check_int "two opens" 2 (Breaker.opens b);
  let d2 = Backoff.delay Backoff.recovery ~attempt:2 in
  check_bool "second dwell is longer" true (d2 > d1);
  check_bool "still closed to traffic inside dwell" false (Breaker.ready b ~now:(d1 + d2 - 1));
  check_bool "re-admits after the longer dwell" true (Breaker.ready b ~now:(d1 + d2))

(* -- Satellite regression: container rebuilds and breaker probes share one
   capped backoff configuration, so every repair loop saturates together. -- *)

let test_shared_recovery_backoff () =
  check_bool "default is the recovery schedule" true (Backoff.default == Backoff.recovery);
  check_bool "container rebuilds use the shared schedule" true
    (Container.default_recovery.Container.rebuild_backoff == Backoff.recovery);
  check_bool "breaker probes use the shared schedule" true
    (Breaker.default_config.Breaker.probe_backoff == Backoff.recovery);
  let saturated b = Backoff.delay b ~attempt:1000 in
  check_int "rebuilds saturate at the shared cap"
    Backoff.recovery.Backoff.cap_ns
    (saturated Container.default_recovery.Container.rebuild_backoff);
  check_int "probes saturate at the same cap"
    (saturated Container.default_recovery.Container.rebuild_backoff)
    (saturated Breaker.default_config.Breaker.probe_backoff)

(* -- Scripted single-function strategy: fixed service time, no faults. -- *)

let resp id = { Fm.value = id; residue = []; output_kb = 1; service_denials = 0; crashed = false; hung = false }

let scripted ~service_ns name =
  {
    Intf.name;
    init_ns = Time_ns.of_ms 1.0;
    invoke =
      (fun req ->
        Intf.invocation ~on_path_ns:service_ns ~outcome:Intf.Completed (resp req.Request.id));
    snapshot_pages = (fun () -> 0);
    status = Intf.no_status;
    kill = Intf.no_kill;
    degrade = Intf.no_degrade;
    scrub = Intf.no_scrub;
    audit = Intf.no_audit;
    describe = (fun () -> name);
  }

let spec = { Fm.default_spec with Fm.name = "fn" }

let node_config ~cores ~admission =
  {
    Node.total_cores = cores;
    memory_mb = 4096;
    idle_timeout = Time_ns.of_sec 10.0;
    dispatch_ns = 0;
    admission;
    brownout = None;
    scrub = None;
  }

(* -- Node.cancel: a removed hedge loser leaves no residue -- *)

let test_node_cancel () =
  let engine = Engine.create () in
  let node =
    Node.create engine (node_config ~cores:1 ~admission:Admission.unbounded)
      ~make_strategy:(fun name _ -> scripted ~service_ns:(Time_ns.of_ms 10.0) name)
  in
  Node.register node ~name:"fn" spec;
  let sheds = ref 0 in
  Node.set_on_shed node (fun _ _ -> incr sheds);
  let completed = ref [] in
  for i = 1 to 2 do
    Node.submit node ~name:"fn"
      (Request.make ~id:i ~principal:alice ())
      ~on_complete:(fun rq _ -> completed := rq.Request.id :: !completed)
  done;
  check_bool "queued request cancels" true (Node.cancel node ~name:"fn" ~req_id:2);
  check_bool "already-executing request does not" false (Node.cancel node ~name:"fn" ~req_id:1);
  check_bool "unknown request does not" false (Node.cancel node ~name:"fn" ~req_id:99);
  Engine.run_all engine;
  let s = List.find (fun (s : Node.fn_stats) -> s.Node.fn_name = "fn") (Node.stats node) in
  check_bool "winner completed, loser did not" true (!completed = [ 1 ]);
  check_int "one cancellation counted" 1 s.Node.cancelled;
  check_int "cancellation is silent: no shed" 0 !sheds;
  check_int "cancellation is silent: no expiry" 0 s.Node.expired;
  check_int "only the winner completed" 1 s.Node.completed

(* -- Cluster helpers -- *)

let cluster_config ?(response_timeout = Time_ns.of_ms 50.0) ~n_nodes ~failover ~hedge_after
    ~max_attempts ~admission () =
  {
    Cluster.n_nodes;
    node = node_config ~cores:1 ~admission;
    placement = Cluster.Least_loaded;
    failover;
    hb_interval = Time_ns.of_ms 10.0;
    hang_ns = Time_ns.of_ms 40.0;
    response_timeout;
    max_attempts;
    hedge_after;
    restart_ns = Time_ns.of_ms 30.0;
    health = Health.default_config;
    breaker = Breaker.default_config;
  }

(* -- Deterministic nth-crash failover: one scheduled crash, one retry -- *)

let crash_failover_run () =
  let engine = Engine.create () in
  let plan = Fault.create ~seed:7 in
  (* Member 0's crash draw on tick 1 is occurrence 1 (draws advance
     n_nodes per tick, dead or alive). *)
  Fault.set plan Fault.Node_crash ~nth:[ 1 ] ();
  let cluster =
    Cluster.create ~fault:plan engine
      (cluster_config ~n_nodes:2 ~failover:true ~hedge_after:None ~max_attempts:3
         ~admission:Admission.unbounded ())
      ~make_strategy:(fun name _ -> scripted ~service_ns:(Time_ns.of_ms 30.0) name)
  in
  Cluster.register cluster ~name:"fn" spec;
  Cluster.start cluster ~until:(Time_ns.of_sec 1.0);
  let served = ref [] in
  let failed = ref [] in
  Cluster.set_on_failed cluster (fun rq -> failed := rq.Request.id :: !failed);
  Cluster.submit cluster ~name:"fn"
    (Request.make ~id:1 ~principal:alice ())
    ~on_response:(fun rq _ -> served := rq.Request.id :: !served);
  Engine.run_all engine;
  (!served, !failed, Cluster.stats cluster, Cluster.member_views cluster)

let test_nth_crash_failover () =
  let served, failed, s, views = crash_failover_run () in
  (* The request lands on n0 (least-loaded tie) at t=0 and executes for
     ~31 ms (1 ms cold start + 30 ms service). n0 crashes at the 10 ms
     tick, so the response surfaces from a dead incarnation: the epoch
     check drops it as lost and fails over immediately — well before the
     50 ms attempt timeout, which finds the attempt already concluded. *)
  check_bool "served exactly once" true (served = [ 1 ]);
  check_bool "never failed" true (failed = []);
  check_int "one crash" 1 s.Cluster.crashes;
  check_int "one restart" 1 s.Cluster.restarts;
  check_int "one failover retry" 1 s.Cluster.retries;
  check_int "lost response beat the attempt timeout" 0 s.Cluster.attempt_timeouts;
  check_int "the dead incarnation's response was lost" 1 s.Cluster.lost_responses;
  check_int "conservation: completions = served + wasted + lost"
    s.Cluster.node_completions
    (s.Cluster.served + s.Cluster.wasted_responses + s.Cluster.lost_responses);
  check_int "no dangling attempts" 0 s.Cluster.inflight;
  check_int "no pending requests" 0 s.Cluster.pending_requests;
  (match views with
  | [ m0; m1 ] ->
      check_bool "n0 restarted" true m0.Cluster.mv_up;
      check_int "n0 epoch: crash + restart" 2 m0.Cluster.mv_epoch;
      check_int "n1 untouched" 0 m1.Cluster.mv_epoch
  | _ -> Alcotest.fail "expected two members")

let test_nth_crash_failover_deterministic () =
  let s1, f1, st1, v1 = crash_failover_run () in
  let s2, f2, st2, v2 = crash_failover_run () in
  check_bool "served replays" true (s1 = s2);
  check_bool "failed replays" true (f1 = f2);
  check_bool "stats replay" true (st1 = st2);
  check_bool "member views replay" true (v1 = v2)

(* -- Hedged request: the winner serves, the queued loser is cancelled
   silently (no shed, no occupancy, no metrics residue). -- *)

let test_hedge_loser_cancelled () =
  let engine = Engine.create () in
  (* Request 2 is an outlier (200 ms); everything else takes 35 ms. *)
  let slow_outlier name =
    {
      (scripted ~service_ns:(Time_ns.of_ms 35.0) name) with
      Intf.invoke =
        (fun req ->
          let service_ns =
            if req.Request.id = 2 then Time_ns.of_ms 200.0 else Time_ns.of_ms 35.0
          in
          Intf.invocation ~on_path_ns:service_ns ~outcome:Intf.Completed (resp req.Request.id));
    }
  in
  let cluster =
    Cluster.create engine
      (cluster_config
         ~response_timeout:(Time_ns.of_ms 500.0)
         ~n_nodes:2 ~failover:true ~hedge_after:(Some (Time_ns.of_ms 20.0))
         ~max_attempts:3 ~admission:Admission.unbounded ())
      ~make_strategy:(fun name _ -> slow_outlier name)
  in
  Cluster.register cluster ~name:"fn" spec;
  Cluster.start cluster ~until:(Time_ns.of_sec 1.0);
  (* All three arrive at t=0: req1 executes on n0, the outlier req2 on n1,
     req3 queues behind req1. Nothing has answered by 20 ms, so all three
     hedge to the node they are not already on. n0 then clears its line —
     req1 at 36 ms and req3 at 71 ms — and each win cancels the still
     queued hedge copy on n1 (the outlier pins n1's core until 201 ms).
     req2's hedge must run the same outlier body, so its original wins at
     201 ms while the hedge is executing on n0: that loser cannot be
     cancelled and surfaces later as the one suppressed duplicate. *)
  let served = Hashtbl.create 4 in
  for i = 1 to 3 do
    Cluster.submit cluster ~name:"fn"
      (Request.make ~id:i ~principal:alice ())
      ~on_response:(fun rq _ ->
        Hashtbl.replace served rq.Request.id
          (1 + Option.value ~default:0 (Hashtbl.find_opt served rq.Request.id)))
  done;
  Engine.run_all engine;
  let s = Cluster.stats cluster in
  check_int "every request served exactly once" 3
    (Hashtbl.fold (fun _ c acc -> check_int "no duplicate serve" 1 c; acc + c) served 0);
  check_int "all three hedged" 3 s.Cluster.hedges;
  check_int "both queued losers cancelled" 2 s.Cluster.hedge_cancelled;
  check_int "cancellations reached the node queues" 2
    (let m = Cluster.metrics cluster in
     Metrics.counter_value (Metrics.counter m "n0.node.fn.cancelled")
     + Metrics.counter_value (Metrics.counter m "n1.node.fn.cancelled"));
  check_int "the uncancellable loser was suppressed, not delivered" 1
    s.Cluster.wasted_responses;
  check_int "conservation: completions = served + wasted + lost"
    s.Cluster.node_completions
    (s.Cluster.served + s.Cluster.wasted_responses + s.Cluster.lost_responses);
  check_int "nothing failed" 0 s.Cluster.failed;
  check_int "no failover retries (hedges are not retries)" 0 s.Cluster.retries;
  check_int "no dangling attempts" 0 s.Cluster.inflight;
  check_int "no pending requests" 0 s.Cluster.pending_requests

(* -- Spans through the cluster front door: placement decisions, failover
   attempts and hedges all appear, every attempt carries its outcome, and
   the whole forest closes (Span.check) even though losers conclude after
   the request settles. -- *)

let test_cluster_spans_close_and_annotate () =
  let engine = Engine.create () in
  let plan = Fault.create ~seed:7 in
  Fault.set plan Fault.Node_crash ~nth:[ 1 ] ();
  let spans = Span.create () in
  let cluster =
    Cluster.create ~obs:{ Gh_sim.Obs.none with spans = Some spans } ~fault:plan engine
      (cluster_config ~n_nodes:2 ~failover:true ~hedge_after:(Some (Time_ns.of_ms 20.0))
         ~max_attempts:3 ~admission:Admission.unbounded ())
      ~make_strategy:(fun name _ -> scripted ~service_ns:(Time_ns.of_ms 30.0) name)
  in
  Cluster.register cluster ~name:"fn" spec;
  Cluster.start cluster ~until:(Time_ns.of_sec 1.0);
  let settled = ref 0 in
  Cluster.set_on_failed cluster (fun _ -> incr settled);
  for i = 1 to 4 do
    Engine.at engine
      ~time:(i * Time_ns.of_ms 5.0)
      (fun () ->
        Cluster.submit cluster ~name:"fn"
          (Request.make ~id:i ~principal:alice ())
          ~on_response:(fun _ _ -> incr settled))
  done;
  Engine.run_all engine;
  check_int "every request settled" 4 !settled;
  check_int "no span left open" 0 (Span.open_count spans);
  (match Span.check spans with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "span invariants: %s" msg);
  let records = Span.records spans in
  let names = List.map (fun r -> r.Span.name) records in
  check_int "one root per request" 4
    (List.length (List.filter (fun n -> n = "request") names));
  check_bool "placement decisions recorded" true (List.mem "place" names);
  let is_attempt n = String.length n >= 8 && String.sub n 0 8 = "attempt-" in
  let attempts = List.filter (fun r -> is_attempt r.Span.name) records in
  check_bool "attempt spans recorded" true (attempts <> []);
  check_bool "every attempt concluded with an outcome" true
    (List.for_all (fun r -> List.mem_assoc "outcome" r.Span.attrs) attempts);
  (* The crash forces at least one non-winning attempt. *)
  check_bool "a failover or hedge loser is visible" true
    (List.exists
       (fun r -> List.assoc_opt "outcome" r.Span.attrs <> Some "win")
       attempts);
  check_bool "roots carry the settled outcome" true
    (List.for_all
       (fun r -> r.Span.name <> "request" || List.mem_assoc "outcome" r.Span.attrs)
       records)

(* -- QCheck: the exactly-once delivery contract under random node faults,
   retries and hedging. -- *)

let exactly_once_run (seed, prob) =
  let engine = Engine.create () in
  let plan = Fault.create ~seed:(Hashtbl.hash (seed, "cluster-prop")) in
  Fault.set plan Fault.Node_crash ~prob ();
  Fault.set plan Fault.Node_hang ~prob ();
  Fault.set plan Fault.Cluster_msg_loss ~prob:(prob /. 2.0) ();
  Fault.set plan Fault.Heartbeat_drop ~prob:0.05 ();
  let metrics = Metrics.create () in
  let cluster =
    Cluster.create
      ~obs:{ Gh_sim.Obs.none with metrics = Some metrics }
      ~fault:plan ~rng:(Rng.create seed) engine
      (cluster_config ~n_nodes:3 ~failover:true ~hedge_after:(Some (Time_ns.of_ms 30.0))
         ~max_attempts:3
         ~admission:(Admission.bounded ~policy:Admission.Edf_drop 4) ())
      ~make_strategy:(fun name _ -> scripted ~service_ns:(Time_ns.of_ms 8.0) name)
  in
  Cluster.register cluster ~name:"fn" spec;
  Cluster.start cluster ~until:(Time_ns.of_sec 3.0);
  let n = 40 in
  let served = Hashtbl.create 64 in
  let failed = Hashtbl.create 64 in
  Cluster.set_on_failed cluster (fun rq ->
      Hashtbl.replace failed rq.Request.id
        (1 + Option.value ~default:0 (Hashtbl.find_opt failed rq.Request.id)));
  for i = 1 to n do
    Engine.at engine
      ~time:(i * Time_ns.of_ms 10.0)
      (fun () ->
        (* Half the stream carries a deadline: exercises expiry sheds and
           the bounded wait-for-a-candidate loop. *)
        let deadline =
          if i mod 2 = 0 then Some (Engine.now engine + Time_ns.of_ms 400.0) else None
        in
        Cluster.submit cluster ~name:"fn"
          (Request.make ~id:i ~principal:alice ?deadline ())
          ~on_response:(fun rq _ ->
            Hashtbl.replace served rq.Request.id
              (1 + Option.value ~default:0 (Hashtbl.find_opt served rq.Request.id))))
  done;
  Engine.run_all engine;
  (n, served, failed, Cluster.stats cluster)

let exactly_once_prop =
  QCheck2.Test.make
    ~name:"cluster delivery is exactly-once under node faults, retries and hedging"
    ~count:20
    QCheck2.Gen.(pair (int_bound 100_000) (oneofl [ 0.0; 0.02; 0.1; 0.3 ]))
    (fun case ->
      let n, served, failed, s = exactly_once_run case in
      let fail fmt = QCheck2.Test.fail_reportf fmt in
      Hashtbl.iter
        (fun id count -> if count > 1 then fail "req#%d served %d times" id count)
        served;
      Hashtbl.iter
        (fun id count ->
          if count > 1 then fail "req#%d failed %d times" id count;
          if Hashtbl.mem served id then fail "req#%d both served and failed" id)
        failed;
      for id = 1 to n do
        if not (Hashtbl.mem served id || Hashtbl.mem failed id) then
          fail "req#%d never settled (failover on must account for every request)" id
      done;
      if s.Cluster.node_completions
         <> s.Cluster.served + s.Cluster.wasted_responses + s.Cluster.lost_responses
      then
        fail "conservation violated: %d completions vs %d served + %d wasted + %d lost"
          s.Cluster.node_completions s.Cluster.served s.Cluster.wasted_responses
          s.Cluster.lost_responses;
      if s.Cluster.inflight <> 0 then fail "%d attempts still in flight" s.Cluster.inflight;
      if s.Cluster.pending_requests <> 0 then
        fail "%d requests never forgotten" s.Cluster.pending_requests;
      true)

let exactly_once_deterministic () =
  let run () =
    let n, served, failed, s = exactly_once_run (4242, 0.1) in
    let dump tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare in
    (n, dump served, dump failed, s)
  in
  check_bool "fault + failover history replays bit-identically" true (run () = run ())

let () =
  Alcotest.run "cluster"
    [
      ( "health",
        [
          Alcotest.test_case "drain -> quarantine -> rejoin" `Quick test_health_lifecycle;
          Alcotest.test_case "flap resistance" `Quick test_health_flap_resistance;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "trip, probe, close" `Quick test_breaker_trip_probe_close;
          Alcotest.test_case "failed probe backs off longer" `Quick
            test_breaker_failed_probe_longer_dwell;
          Alcotest.test_case "shared recovery backoff" `Quick test_shared_recovery_backoff;
        ] );
      ( "node",
        [ Alcotest.test_case "cancel leaves no residue" `Quick test_node_cancel ] );
      ( "failover",
        [
          Alcotest.test_case "nth-crash failover" `Quick test_nth_crash_failover;
          Alcotest.test_case "nth-crash deterministic" `Quick
            test_nth_crash_failover_deterministic;
          Alcotest.test_case "hedge loser cancelled" `Quick test_hedge_loser_cancelled;
          Alcotest.test_case "exactly-once deterministic" `Quick exactly_once_deterministic;
        ] );
      ( "spans",
        [
          Alcotest.test_case "close and annotate" `Quick
            test_cluster_spans_close_and_annotate;
        ] );
      ( "exactly-once",
        [ QCheck_alcotest.to_alcotest ~verbose:false exactly_once_prop ] );
    ]
