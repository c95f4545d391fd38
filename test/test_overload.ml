(* Overload protection: admission policies, brownout hysteresis, deadline
   shedding, the bounded latency reservoir, bursty arrivals, the engine's
   runaway guard, backoff properties, and Groundhog's degraded-mode restore
   deferral (which must never weaken isolation). *)

module Engine = Gh_sim.Engine
module Time_ns = Gh_sim.Time_ns
module Rng = Gh_sim.Rng
module Reservoir = Gh_sim.Reservoir
module Fm = Gh_faas.Function_model
module Intf = Gh_faas.Strategy_intf
module Request = Gh_faas.Request
module Principal = Gh_faas.Principal
module Admission = Gh_faas.Admission
module Brownout = Gh_faas.Brownout
module Backoff = Gh_faas.Backoff
module Node = Gh_faas.Node
module Synthetic = Gh_workloads.Synthetic

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let alice = Principal.make ~id:1 ~name:"alice"
let bob = Principal.make ~id:2 ~name:"bob"
let carol = Principal.with_priority (Principal.make ~id:3 ~name:"carol") 0
let req ?deadline ?(principal = alice) id = Request.make ~id ~principal ?deadline ()

(* -- Admission -- *)

type shed_log = { mutable events : (Admission.reason * int) list }

let make_queue ?policy capacity =
  let log = { events = [] } in
  let q =
    Admission.create
      ~on_shed:(fun reason r () -> log.events <- (reason, r.Request.id) :: log.events)
      (match policy with
      | None -> Admission.bounded capacity
      | Some p -> Admission.bounded ~policy:p capacity)
  in
  (q, log)

let drain q ~now =
  let rec go acc = match Admission.take q ~now with
    | Some (r, ()) -> go (r.Request.id :: acc)
    | None -> List.rev acc
  in
  go []

let test_unbounded_is_fifo () =
  let q = Admission.create Admission.unbounded in
  for i = 1 to 100 do
    check_bool "admitted" true (Admission.admit q ~now:0 (req i) ())
  done;
  check_int "fifo order" 1
    (match Admission.take q ~now:0 with Some (r, ()) -> r.Request.id | None -> 0);
  check_int "no shed" 0 (Admission.shed_count q);
  check_int "high water" 100 (Admission.high_water q)

let test_fifo_drop_tail () =
  let q, log = make_queue 2 in
  check_bool "a" true (Admission.admit q ~now:0 (req 1) ());
  check_bool "b" true (Admission.admit q ~now:0 (req 2) ());
  (* Drop-tail: the newcomer is the victim. *)
  check_bool "c rejected" false (Admission.admit q ~now:0 (req 3) ());
  check_int "still two queued" 2 (Admission.length q);
  check_bool "shed event for 3" true (List.mem (Admission.Capacity, 3) log.events);
  check_int "served oldest first" 1
    (match Admission.take q ~now:0 with Some (r, ()) -> r.Request.id | None -> 0)

let test_edf_drops_earliest_expiry () =
  let q, log = make_queue ~policy:Admission.Edf_drop 2 in
  ignore (Admission.admit q ~now:0 (req ~deadline:100 1) ());
  ignore (Admission.admit q ~now:0 (req ~deadline:50 2) ());
  (* No deadline = infinitely patient: the doomed soonest-expiry entry
     (id 2) is the victim, not the newcomer. *)
  check_bool "newcomer admitted" true (Admission.admit q ~now:0 (req 3) ());
  check_bool "earliest expiry shed" true (List.mem (Admission.Capacity, 2) log.events);
  check_bool "survivors" true (drain q ~now:0 = [ 1; 3 ])

let test_dead_on_arrival_rejected () =
  let q, log = make_queue 8 in
  check_bool "expired at submit" false (Admission.admit q ~now:200 (req ~deadline:100 1) ());
  check_int "not queued" 0 (Admission.length q);
  check_int "expired counter" 1 (Admission.expired_count q);
  check_bool "expired event" true (List.mem (Admission.Expired, 1) log.events)

let test_queued_requests_expire () =
  let q, log = make_queue 8 in
  ignore (Admission.admit q ~now:0 (req ~deadline:100 1) ());
  ignore (Admission.admit q ~now:0 (req ~deadline:1_000 2) ());
  (* By the time a core frees up, request 1's deadline has passed: it must
     be purged, never served. *)
  check_int "still-live entry served" 2
    (match Admission.take q ~now:500 with Some (r, ()) -> r.Request.id | None -> 0);
  check_int "expired counter" 1 (Admission.expired_count q);
  check_bool "expired event" true (List.mem (Admission.Expired, 1) log.events);
  check_bool "queue drained" true (Admission.is_empty q)

(* -- Brownout -- *)

let bcfg =
  {
    Brownout.target_delay_ns = Time_ns.of_ms 10.0;
    escalate_after = 3;
    recover_after = 2;
    hysteresis = 0.5;
    shed_below_priority = 1;
  }

let over = Time_ns.of_ms 20.0 (* above target *)
let under = Time_ns.of_ms 1.0 (* below hysteresis * target *)
let dead_band = Time_ns.of_ms 8.0 (* between the two *)

let test_brownout_escalates_after_streak () =
  let b = Brownout.create bcfg in
  check_bool "one sample is noise" false (Brownout.observe b over);
  ignore (Brownout.observe b over);
  check_bool "third over-sample escalates" true (Brownout.observe b over);
  check_bool "degraded" true (Brownout.level b = Brownout.Degraded);
  ignore (Brownout.observe b over);
  ignore (Brownout.observe b over);
  check_bool "escalates again" true (Brownout.observe b over);
  check_bool "shedding" true (Brownout.level b = Brownout.Shedding);
  check_int "two escalations" 2 (Brownout.escalations b)

let test_brownout_recovers_hysteretically () =
  let b = Brownout.create bcfg in
  for _ = 1 to 3 do ignore (Brownout.observe b over) done;
  check_bool "degraded" true (Brownout.level b = Brownout.Degraded);
  (* Samples merely below target but above the hysteresis band must NOT
     recover — that is the Schmitt trigger's whole point. *)
  for _ = 1 to 10 do ignore (Brownout.observe b dead_band) done;
  check_bool "dead band holds level" true (Brownout.level b = Brownout.Degraded);
  ignore (Brownout.observe b under);
  check_bool "second calm sample recovers" true (Brownout.observe b under);
  check_bool "normal again" true (Brownout.level b = Brownout.Normal)

let test_brownout_dead_band_resets_streaks () =
  let b = Brownout.create bcfg in
  ignore (Brownout.observe b over);
  ignore (Brownout.observe b over);
  ignore (Brownout.observe b dead_band);
  (* The over-streak was broken: two more over-samples are not enough. *)
  ignore (Brownout.observe b over);
  check_bool "streak restarted" false (Brownout.observe b over);
  check_bool "still normal" true (Brownout.level b = Brownout.Normal)

let test_brownout_sheds_only_low_priority_at_top_level () =
  let b = Brownout.create bcfg in
  check_bool "normal sheds nobody" false (Brownout.should_shed b carol);
  for _ = 1 to 3 do ignore (Brownout.observe b over) done;
  check_bool "degraded sheds nobody" false (Brownout.should_shed b carol);
  check_bool "degraded defers restores" true (Brownout.defer_restores b);
  for _ = 1 to 3 do ignore (Brownout.observe b over) done;
  check_bool "shedding drops best-effort" true (Brownout.should_shed b carol);
  check_bool "paying tenants still served" false (Brownout.should_shed b alice)

(* -- Reservoir -- *)

let test_reservoir_exact_below_capacity () =
  let r = Reservoir.create 8 in
  List.iter (Reservoir.add r) [ 1.0; 2.0; 3.0 ];
  check_bool "newest first, exact" true (Reservoir.to_list r = [ 3.0; 2.0; 1.0 ]);
  check_int "seen" 3 (Reservoir.seen r);
  check_int "stored" 3 (Reservoir.stored r)

let test_reservoir_bounds_memory () =
  let r = Reservoir.create ~seed:7 16 in
  for i = 1 to 10_000 do
    Reservoir.add r (float_of_int i)
  done;
  check_int "stored capped" 16 (Reservoir.stored r);
  check_int "seen everything" 10_000 (Reservoir.seen r);
  List.iter
    (fun v -> check_bool "sample came from the stream" true (v >= 1.0 && v <= 10_000.0))
    (Reservoir.to_list r);
  (* A uniform sample over 1..10000 is overwhelmingly unlikely to stay in
     the first thousand. *)
  check_bool "keeps late elements" true (List.exists (fun v -> v > 1_000.0) (Reservoir.to_list r))

let test_reservoir_deterministic () =
  let fill seed =
    let r = Reservoir.create ~seed 32 in
    for i = 1 to 5_000 do Reservoir.add r (float_of_int i) done;
    Reservoir.to_list r
  in
  check_bool "same seed, same sample" true (fill 3 = fill 3);
  check_bool "different seed, different sample" true (fill 3 <> fill 4)

(* -- Bursty arrivals -- *)

let test_burst_deterministic_and_ascending () =
  let gen seed = Synthetic.burst (Rng.create seed) ~rate_rps:50.0 ~n:200 in
  let a = gen 11 and b = gen 11 in
  check_bool "deterministic" true (a = b);
  check_bool "different seed differs" true (a <> gen 12);
  check_int "count" 200 (List.length a);
  let ascending =
    List.for_all2 (fun x y -> x < y) (List.filteri (fun i _ -> i < 199) a) (List.tl a)
  in
  check_bool "strictly ascending" true ascending

let test_burst_validates_arguments () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "bad rate" (Invalid_argument "Synthetic.burst: rate_rps must be positive")
    (fun () -> ignore (Synthetic.burst rng ~rate_rps:0.0 ~n:1));
  Alcotest.check_raises "bad duty" (Invalid_argument "Synthetic.burst: duty outside (0,1]")
    (fun () -> ignore (Synthetic.burst ~duty:1.5 rng ~rate_rps:1.0 ~n:1))

(* -- Engine runaway guard -- *)

let test_run_all_guard_trips () =
  let engine = Engine.create () in
  let rec tick () = Engine.schedule engine ~after:1 tick in
  Engine.schedule engine ~after:1 tick;
  check_bool "runaway loop detected" true
    (match Engine.run_all ~max_events:1_000 engine with
    | () -> false
    | exception Failure _ -> true)

let test_run_all_guard_spares_finite_runs () =
  let engine = Engine.create () in
  let fired = ref 0 in
  for i = 1 to 100 do
    Engine.at engine ~time:i (fun () -> incr fired)
  done;
  Engine.run_all ~max_events:100 engine;
  check_int "all events ran" 100 !fired;
  check_bool "non-positive budget rejected" true
    (match Engine.run_all ~max_events:0 engine with
    | () -> false
    | exception Invalid_argument _ -> true)

(* -- Backoff properties -- *)

let backoff_gen =
  QCheck2.Gen.(
    quad (int_range 0 1_000_000) (int_range 0 2_000_000) (float_range 1.0 4.0)
      (float_range 0.0 0.9))

let print_backoff (base, extra, m, j) =
  Printf.sprintf "base=%d cap=base+%d mult=%.2f jitter=%.2f" base extra m j

let backoff_monotone_to_cap =
  QCheck2.Test.make ~name:"backoff delays are monotone and capped" ~count:200
    ~print:print_backoff backoff_gen (fun (base, extra, multiplier, jitter) ->
      let t = Backoff.make ~base_ns:base ~cap_ns:(base + extra) ~multiplier ~jitter () in
      let delays = List.init 30 (fun i -> Backoff.delay t ~attempt:(i + 1)) in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      (* Without an rng the sequence is deterministic, nondecreasing, and
         never exceeds the cap; huge attempt numbers must stay monotone and
         capped rather than overflow. (Exact saturation at the cap is not
         guaranteed for multipliers barely above 1, where the delay can
         still creep between consecutive huge attempts.) *)
      let d1000 = Backoff.delay t ~attempt:1_000 in
      let d1001 = Backoff.delay t ~attempt:1_001 in
      monotone delays
      && List.for_all (fun d -> d >= 0 && d <= base + extra) delays
      && d1000 <= d1001
      && d1001 <= base + extra
      && Backoff.delay t ~attempt:max_int <= base + extra)

let backoff_jitter_stays_in_band =
  QCheck2.Test.make ~name:"backoff jitter stays inside its band" ~count:200
    ~print:print_backoff backoff_gen (fun (base, extra, multiplier, jitter) ->
      let t = Backoff.make ~base_ns:base ~cap_ns:(base + extra) ~multiplier ~jitter () in
      let rng = Rng.create (base + extra) in
      List.for_all
        (fun attempt ->
          let pure = float_of_int (Backoff.delay t ~attempt) in
          let d = float_of_int (Backoff.delay ~rng t ~attempt) in
          d >= 0.0
          && d <= float_of_int t.Backoff.cap_ns
          && d >= Float.of_int (int_of_float (pure *. (1.0 -. jitter))) -. 1.0)
        (List.init 20 (fun i -> i + 1)))

let backoff_rejects_bad_attempts =
  QCheck2.Test.make ~name:"backoff rejects attempt < 1" ~count:50
    ~print:string_of_int QCheck2.Gen.(int_range (-100) 0) (fun attempt ->
      match Backoff.delay Backoff.default ~attempt with
      | _ -> false
      | exception Invalid_argument _ -> true)

(* -- Request deadlines -- *)

let test_request_deadline_semantics () =
  let r = req 1 in
  check_bool "no deadline never expires" false (Request.expired r ~now:max_int);
  let d = Request.with_deadline r 1_000 in
  check_bool "before" false (Request.expired d ~now:999);
  check_bool "at the instant" true (Request.expired d ~now:1_000);
  check_bool "deadline kept" true (Request.deadline d = Some 1_000)

(* -- Groundhog degraded mode must not weaken isolation -- *)

let foreign_residue principal (inv : Intf.invocation) =
  List.filter
    (fun w -> w <> 0 && not (Principal.owns_word principal w))
    inv.Intf.response.Fm.residue

let test_gh_degraded_defers_but_never_leaks () =
  let strategy, state =
    Gh_isolation.Gh.make_with_state ~rng:(Rng.create 99) Fm.default_spec
  in
  strategy.Intf.degrade true;
  let inv1 = strategy.Intf.invoke (req ~principal:alice 1) in
  check_int "restore deferred off the critical path" 0 inv1.Intf.post_ns;
  check_int "one deferral" 1 (Gh_isolation.Gh.deferred_restores state);
  check_bool "validated skip reports clean" true (strategy.Intf.status () = Some `Clean);
  (* Same principal back-to-back: the §4.4 argument makes the skip free. *)
  let inv2 = strategy.Intf.invoke (req ~principal:alice 2) in
  check_bool "no foreign residue for alice" true (foreign_residue alice inv2 = []);
  (* Pressure passes, then a different principal arrives: the deferred
     restore must be settled before bob's code runs. *)
  strategy.Intf.degrade false;
  let inv3 = strategy.Intf.invoke (req ~principal:bob 3) in
  check_bool "no cross-principal residue ever" true (foreign_residue bob inv3 = []);
  check_bool "bob's own run is isolated too"
    true
    (foreign_residue carol (strategy.Intf.invoke (req ~principal:carol 4)) = [])

let test_gh_crossing_principals_while_degraded () =
  let strategy, _ = Gh_isolation.Gh.make_with_state ~rng:(Rng.create 7) Fm.default_spec in
  strategy.Intf.degrade true;
  (* Alternate principals while degraded the whole time: every deferral is
     settled with an on-path restore, so isolation must hold throughout. *)
  for i = 1 to 8 do
    let p = if i mod 2 = 0 then bob else alice in
    let inv = strategy.Intf.invoke (req ~principal:p i) in
    check_bool "isolated while degraded" true (foreign_residue p inv = [])
  done

(* -- Node-level deadline shedding -- *)

let test_node_sheds_expired_never_serves_them () =
  let engine = Engine.create () in
  let root = Rng.create 5 in
  let node =
    Node.create engine
      { Node.default_config with Node.dispatch_ns = Time_ns.of_ms 1.0 }
      ~make_strategy:(fun name spec ->
        Gh_isolation.Base.make ~rng:(Rng.named_split root name) spec)
  in
  Node.register node ~name:"fn" Fm.default_spec;
  let shed = ref [] and completed = ref [] in
  Node.set_on_shed node (fun reason r -> shed := (reason, r.Request.id) :: !shed);
  (* Request 1 is already dead on arrival; request 2 has plenty of time. *)
  Engine.at engine ~time:(Time_ns.of_ms 10.0) (fun () ->
      Node.submit node ~name:"fn"
        (req ~deadline:(Time_ns.of_ms 5.0) 1)
        ~on_complete:(fun r _ -> completed := r.Request.id :: !completed);
      Node.submit node ~name:"fn"
        (req ~deadline:(Time_ns.of_sec 30.0) 2)
        ~on_complete:(fun r _ -> completed := r.Request.id :: !completed));
  Engine.run_all engine;
  check_bool "dead-on-arrival shed" true (List.mem (Admission.Expired, 1) !shed);
  check_bool "live request served" true (!completed = [ 2 ]);
  check_int "expired counted" 1 (Node.total_expired node);
  check_int "no deadline miss" 0 (Node.total_deadline_misses node)

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "overload"
    [
      ( "admission",
        [
          Alcotest.test_case "unbounded stays pure fifo" `Quick test_unbounded_is_fifo;
          Alcotest.test_case "fifo drop-tail" `Quick test_fifo_drop_tail;
          Alcotest.test_case "edf drop" `Quick test_edf_drops_earliest_expiry;
          Alcotest.test_case "dead on arrival" `Quick test_dead_on_arrival_rejected;
          Alcotest.test_case "queued expiry" `Quick test_queued_requests_expire;
        ] );
      ( "brownout",
        [
          Alcotest.test_case "escalation streak" `Quick test_brownout_escalates_after_streak;
          Alcotest.test_case "hysteretic recovery" `Quick test_brownout_recovers_hysteretically;
          Alcotest.test_case "dead band" `Quick test_brownout_dead_band_resets_streaks;
          Alcotest.test_case "priority shedding" `Quick
            test_brownout_sheds_only_low_priority_at_top_level;
        ] );
      ( "reservoir",
        [
          Alcotest.test_case "exact below capacity" `Quick test_reservoir_exact_below_capacity;
          Alcotest.test_case "bounded memory" `Quick test_reservoir_bounds_memory;
          Alcotest.test_case "deterministic" `Quick test_reservoir_deterministic;
        ] );
      ( "arrivals",
        [
          Alcotest.test_case "burst determinism" `Quick test_burst_deterministic_and_ascending;
          Alcotest.test_case "burst validation" `Quick test_burst_validates_arguments;
        ] );
      ( "engine",
        [
          Alcotest.test_case "runaway guard trips" `Quick test_run_all_guard_trips;
          Alcotest.test_case "finite runs unaffected" `Quick test_run_all_guard_spares_finite_runs;
        ] );
      ( "backoff",
        [
          to_alcotest backoff_monotone_to_cap;
          to_alcotest backoff_jitter_stays_in_band;
          to_alcotest backoff_rejects_bad_attempts;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "request semantics" `Quick test_request_deadline_semantics;
          Alcotest.test_case "node sheds expired" `Quick test_node_sheds_expired_never_serves_them;
        ] );
      ( "degraded-gh",
        [
          Alcotest.test_case "defers without leaking" `Quick test_gh_degraded_defers_but_never_leaks;
          Alcotest.test_case "crossing principals" `Quick test_gh_crossing_principals_while_degraded;
        ] );
    ]
