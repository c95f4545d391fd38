(* The windowed observability stack: the mergeable quantile sketch, the
   sim-clock-windowed time series collector, burn-rate SLO alerting, and
   the failure flight recorder.

   The load-bearing invariants: sketch merging is associative,
   commutative, and bit-identical under any sharding of one stream (all
   state is integer bucket counts); quantile estimates respect the
   configured relative-error bound against an exact sort; time-series
   windows index straight off the sim clock so independently collected
   series merge by window; SLO alerts fire when both burn windows spend
   budget and clear with hysteresis; flight-recorder dumps validate and
   cover the configured pre-failure window; and attaching any collector
   forces a sweep serial (the -j downgrade contract). *)

module Time_ns = Gh_sim.Time_ns
module Metrics = Gh_sim.Metrics
module Trace = Gh_sim.Trace
module Span = Gh_sim.Span
module Json = Gh_sim.Json
module Sketch = Gh_sim.Sketch
module Timeseries = Gh_sim.Timeseries
module Slo = Gh_sim.Slo
module Flight_recorder = Gh_sim.Flight_recorder
module Config = Gh_harness.Config

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 0.0))

(* -- sketch: basics -- *)

let test_sketch_basics () =
  let sk = Sketch.create () in
  check_bool "starts empty" true (Sketch.is_empty sk);
  check_bool "no quantile while empty" true (Sketch.quantile sk 0.5 = None);
  List.iter (Sketch.observe sk) [ 5.0; 1.0; 100.0; 0.0 ];
  check_int "count includes sub-threshold zeros" 4 (Sketch.count sk);
  check_int "zeros held exactly" 1 (Sketch.zero_count sk);
  check_float "min exact" 0.0 (Option.get (Sketch.min_value sk));
  check_float "max exact" 100.0 (Option.get (Sketch.max_value sk));
  check_float "q=0 is the min" 0.0 (Option.get (Sketch.quantile sk 0.0));
  check_float "q=1 is the max" 100.0 (Option.get (Sketch.quantile sk 1.0));
  (match Sketch.observe sk (-1.0) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative observation not rejected");
  (match Sketch.observe sk Float.nan with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "NaN observation not rejected");
  match Sketch.create ~alpha:1.5 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "alpha outside (0,1) not rejected"

let test_sketch_merge_alpha_mismatch () =
  let a = Sketch.create ~alpha:0.01 () and b = Sketch.create ~alpha:0.02 () in
  match Sketch.merge a b with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "alpha mismatch not rejected"

(* -- sketch: properties -- *)

(* Positive floats without relying on any float generator: spread over
   roughly four orders of magnitude so streams cross many buckets. *)
let gen_value = QCheck2.Gen.(map (fun i -> 0.01 +. (float_of_int i /. 97.0)) (int_range 0 970_000))
let gen_stream = QCheck2.Gen.(list_size (int_range 1 200) gen_value)

let of_list vs =
  let sk = Sketch.create () in
  List.iter (Sketch.observe sk) vs;
  sk

let prop_merge_commutes_and_associates =
  QCheck2.Test.make ~name:"sketch merge is commutative and associative" ~count:100
    QCheck2.Gen.(triple gen_stream gen_stream gen_stream)
    (fun (xs, ys, zs) ->
      let a = of_list xs and b = of_list ys and c = of_list zs in
      Sketch.equal (Sketch.merge a b) (Sketch.merge b a)
      && Sketch.equal
           (Sketch.merge (Sketch.merge a b) c)
           (Sketch.merge a (Sketch.merge b c)))

let prop_rank_error_bound =
  QCheck2.Test.make ~name:"sketch quantiles stay within the alpha rank-error bound"
    ~count:100 gen_stream
    (fun vs ->
      let sk = of_list vs in
      let arr = Array.of_list vs in
      Array.sort compare arr;
      let n = Array.length arr in
      List.for_all
        (fun q ->
          let exact = arr.(int_of_float (q *. float_of_int (n - 1))) in
          match Sketch.quantile sk q with
          | None -> false
          | Some est ->
              let tol = (Sketch.alpha sk *. exact *. 1.000001) +. 1e-9 in
              Float.abs (est -. exact) <= tol)
        [ 0.0; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ])

let prop_sharded_merge_bit_identical =
  (* One stream, sharded any way and merged in any order, must equal the
     sketch that saw every observation directly — the property that lets
     per-node and per-domain series combine without breaking the md5
     gate. *)
  QCheck2.Test.make ~name:"sketch merge is bit-identical under any sharding" ~count:100
    QCheck2.Gen.(pair (list_size (int_range 1 200) (pair gen_value (int_range 0 3))) (int_range 0 23))
    (fun (tagged, perm_seed) ->
      let shards = Array.init 4 (fun _ -> Sketch.create ()) in
      List.iter (fun (v, s) -> Sketch.observe shards.(s) v) tagged;
      let direct = of_list (List.map fst tagged) in
      let order =
        (* One of the 24 shard permutations, picked by the generator. *)
        let rec perms = function
          | [] -> [ [] ]
          | l ->
              List.concat_map
                (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) l)))
                l
        in
        List.nth (perms [ 0; 1; 2; 3 ]) perm_seed
      in
      let merged =
        List.fold_left (fun acc i -> Sketch.merge acc shards.(i)) (Sketch.create ()) order
      in
      Sketch.equal merged direct
      && Sketch.buckets merged = Sketch.buckets direct
      && Sketch.count merged = Sketch.count direct)

(* -- timeseries: windows roll off the sim clock -- *)

let test_timeseries_windows () =
  let m = Metrics.create () in
  let c = Metrics.counter m "req" in
  let g = Metrics.gauge m "depth" in
  let ts = Timeseries.create ~window_ns:100 m in
  check_int "window index off the clock" 2 (Timeseries.window_of ts ~at:250);
  Metrics.incr ~by:3 c;
  Metrics.set g 1.0;
  Timeseries.tick ts ~now:50;
  check_int "same window: nothing rolled" 0 (Timeseries.rolled_windows ts);
  Timeseries.tick ts ~now:150;
  Metrics.incr ~by:2 c;
  Metrics.set g 7.0;
  Timeseries.observe ts ~now:160 "lat" 5.0;
  Timeseries.flush ts ~now:170;
  check_int "two windows closed" 2 (Timeseries.rolled_windows ts);
  Alcotest.(check (list (pair int int)))
    "counter deltas per window" [ (0, 3); (1, 2) ]
    (Timeseries.counter_points ts "req");
  Alcotest.(check (list (pair int (float 0.0))))
    "gauge sampled at each close" [ (0, 1.0); (1, 7.0) ]
    (Timeseries.gauge_points ts "depth");
  (match Timeseries.sketch_windows ts "lat" with
  | [ (1, sk) ] -> check_int "one sample in window 1" 1 (Sketch.count sk)
  | _ -> Alcotest.fail "expected exactly one sketch window");
  check_bool "names sorted within kinds" true
    (Timeseries.names ts = [ ("req", `Counter); ("depth", `Gauge); ("lat", `Sketch) ]);
  (* The flight recorder's view: only windows at or after [since]. *)
  Alcotest.(check (list (pair int (float 0.0))))
    "recent cuts old windows" [ (1, 2.0) ]
    (List.assoc "req" (Timeseries.recent ts ~since:100))

let test_timeseries_merge_bit_identical () =
  let build ops =
    let m = Metrics.create () in
    let c = Metrics.counter m "x" in
    let ts = Timeseries.create ~window_ns:100 m in
    List.iter
      (function
        | `Incr (now, d) ->
            Timeseries.tick ts ~now;
            Metrics.incr ~by:d c
        | `Obs (now, v) -> Timeseries.observe ts ~now "lat" v)
      ops;
    Timeseries.flush ts ~now:1_000;
    ts
  in
  let a = build [ `Incr (10, 3); `Obs (50, 1.0); `Incr (150, 2); `Obs (160, 9.0) ] in
  let b = build [ `Incr (20, 4); `Obs (70, 2.0) ] in
  let ab = Timeseries.merge a b and ba = Timeseries.merge b a in
  check_bool "merge order invisible" true
    (Json.to_string (Timeseries.to_json ab) = Json.to_string (Timeseries.to_json ba));
  Alcotest.(check (list (pair int int)))
    "counter deltas add by window" [ (0, 7); (1, 2) ]
    (Timeseries.counter_points ab "x");
  (match Timeseries.sketch_windows ab "lat" with
  | [ (0, w0); (1, w1) ] ->
      check_int "window 0 sketches merged" 2 (Sketch.count w0);
      check_int "window 1 passes through" 1 (Sketch.count w1)
  | _ -> Alcotest.fail "expected two merged sketch windows");
  match Timeseries.merge a (Timeseries.create ~window_ns:200 (Metrics.create ())) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "window mismatch not rejected"

let test_timeseries_exporters () =
  let m = Metrics.create () in
  let c = Metrics.counter m "node.fn.completed" in
  let ts = Timeseries.create ~window_ns:100 m in
  Metrics.incr ~by:5 c;
  Timeseries.observe ts ~now:40 "e2e ms" 12.5;
  Timeseries.flush ts ~now:40;
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Timeseries.render_prom ppf ts;
  Format.pp_print_flush ppf ();
  let prom = Buffer.contents buf in
  let contains sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length prom && (String.sub prom i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "sanitized counter name" true (contains "gh_node_fn_completed");
  check_bool "original name rides in the label" true (contains "series=\"node.fn.completed\"");
  check_bool "sketch exported as a summary" true (contains "# TYPE gh_e2e_ms summary");
  match Json.of_string (Json.to_string (Timeseries.to_json ts)) with
  | Error msg -> Alcotest.failf "series JSON does not parse: %s" msg
  | Ok json -> (
      match Json.member "window_ns" json with
      | Some (Json.Int 100) -> ()
      | _ -> Alcotest.fail "window_ns missing from export")

(* -- slo: fire when both windows burn, clear with hysteresis -- *)

let slo_config =
  {
    Slo.name = "avail";
    objective = Slo.Availability { target = 0.9 };
    rules = [ { Slo.long_ns = 1_000; short_ns = 100; burn = 2.0 } ];
    clear_after = 2;
    min_events = 5;
  }

let test_slo_fire_and_clear () =
  let metrics = Metrics.create () in
  let trace = Trace.create () in
  let slo = Slo.create ~trace ~metrics slo_config in
  (* Budget 0.1, burn 2.0: fire needs a 20% error rate on BOTH windows. *)
  for _ = 1 to 5 do
    Slo.record slo ~now:950 ~good:false
  done;
  Slo.tick slo ~now:950;
  check_bool "burst fires" true (Slo.firing slo);
  (match Slo.alerts slo with
  | [ a ] ->
      check_bool "fire transition" true (a.Slo.a_kind = `Fire);
      check_int "tripping rule recorded" 0 a.Slo.a_rule;
      check_bool "burn rates reported" true (a.Slo.a_burn_long >= 2.0 && a.Slo.a_burn_short >= 2.0)
  | _ -> Alcotest.fail "expected exactly one alert");
  (* The episode ages out of every window; hysteresis needs two clean
     evaluations before the alert clears. *)
  Slo.tick slo ~now:2_500;
  check_bool "one clean tick is not enough" true (Slo.firing slo);
  Slo.tick slo ~now:2_600;
  check_bool "clear_after clean ticks clear" false (Slo.firing slo);
  check_int "fire then clear" 2 (List.length (Slo.alerts slo));
  check_bool "transitions hit the trace" true
    (List.length (Trace.find trace ~category:"slo") = 2);
  (match Metrics.find_counter metrics "slo.avail.fired" with
  | Some c -> check_int "fired counter" 1 (Metrics.counter_value c)
  | None -> Alcotest.fail "slo.avail.fired not registered");
  check_bool "totals track events" true (Slo.totals slo = (0, 5))

let test_slo_short_window_gates_stale_burn () =
  (* Budget spent long ago must not fire: the long window still burns
     but the short window is quiet — the "still happening" gate. *)
  let slo = Slo.create slo_config in
  for _ = 1 to 5 do
    Slo.record slo ~now:100 ~good:false
  done;
  for _ = 1 to 20 do
    Slo.record slo ~now:900 ~good:true
  done;
  Slo.tick slo ~now:900;
  check_bool "stale burn does not fire" false (Slo.firing slo)

let test_slo_classification () =
  let mk objective = Slo.create { slo_config with Slo.name = "o"; objective } in
  let lat = mk (Slo.Latency { limit_ms = 100.0; target = 0.99 }) in
  Slo.record_completion lat ~now:10 ~ok:true ~e2e_ms:50.0 ~cold:true;
  Slo.record_completion lat ~now:10 ~ok:true ~e2e_ms:150.0 ~cold:false;
  Slo.record_completion lat ~now:10 ~ok:false ~e2e_ms:10.0 ~cold:false;
  check_bool "slow and failed are both latency-bad" true (Slo.totals lat = (1, 2));
  let cold = mk (Slo.Cold_start { target = 0.75 }) in
  Slo.record_completion cold ~now:10 ~ok:true ~e2e_ms:1.0 ~cold:true;
  Slo.record_completion cold ~now:10 ~ok:false ~e2e_ms:1.0 ~cold:true;
  check_bool "failures invisible to the cold-start SLI" true (Slo.totals cold = (0, 1));
  check_bool "standard set ships the stock objectives" true
    (List.map Slo.name (Slo.standard ()) = [ "availability"; "latency-p99"; "cold-start" ])

(* -- flight recorder: pre-failure forensics -- *)

let test_flight_recorder_dumps_and_validate () =
  let trace = Trace.create () in
  let spans = Span.create () in
  let m = Metrics.create () in
  let c = Metrics.counter m "req" in
  let series = Timeseries.create ~window_ns:100 m in
  let recorder =
    Flight_recorder.create ~capacity:2 ~window_ns:500 ~trace ~spans ~series ~name:"n0" ()
  in
  for i = 1 to 10 do
    let at = i * 100 in
    Trace.emitf trace ~at ~category:"node" ~what:"w" "e%d" i;
    ignore (Span.complete spans ~start:(at - 50) ~stop:at ~name:"exec" ());
    Metrics.incr c;
    Timeseries.tick series ~now:at
  done;
  let d = Flight_recorder.snapshot recorder ~now:1_000 ~node:"n0" ~reason:"poisoned" ~detail:"fn" () in
  check_bool "window recorded" true (d.Flight_recorder.d_window_ns = 500);
  check_bool "every captured event inside the pre-failure window" true
    (List.for_all
       (fun (e : Trace.event) -> e.Trace.at >= 500 && e.Trace.at <= 1_000)
       d.Flight_recorder.d_events);
  check_bool "events actually captured" true (List.length d.Flight_recorder.d_events >= 5);
  check_bool "spans overlapping the window captured" true
    (d.Flight_recorder.d_spans <> []);
  check_bool "series deltas captured" true
    (List.mem_assoc "req" d.Flight_recorder.d_series);
  (* Ring semantics: capacity bounds retention, total keeps counting. *)
  ignore (Flight_recorder.snapshot recorder ~now:1_100 ~reason:"breaker-open" ~detail:"n1" ());
  ignore (Flight_recorder.snapshot recorder ~now:1_200 ~reason:"quarantine" ~detail:"n2" ());
  check_int "total counts evicted dumps" 3 (Flight_recorder.total recorder);
  check_int "ring holds capacity" 2 (List.length (Flight_recorder.dumps recorder));
  check_bool "oldest evicted first" true
    ((List.hd (Flight_recorder.dumps recorder)).Flight_recorder.d_reason = "breaker-open");
  (match Flight_recorder.validate (Flight_recorder.to_json recorder) with
  | Ok n -> check_int "schema-valid dumps" 2 n
  | Error msg -> Alcotest.failf "recorder export invalid: %s" msg);
  (* A tampered document must not validate. *)
  match
    Flight_recorder.validate
      (Json.Assoc [ ("name", Json.String "n0"); ("dumps", Json.List [ Json.Int 3 ]) ])
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed document validated"

(* -- the -j downgrade contract -- *)

let test_collectors_force_serial () =
  let base = { Config.default with Config.jobs = 4 } in
  check_int "bare sweep keeps its jobs" 4 (Config.effective_jobs base);
  let m = Metrics.create () in
  let with_series = { base with Config.series = Some (Timeseries.create m) } in
  check_int "series collector forces serial" 1 (Config.effective_jobs with_series);
  let with_many =
    { base with Config.spans = Some (Span.create ()); slos = Slo.standard () }
  in
  check_int "any collector forces serial" 1 (Config.effective_jobs with_many)

let () =
  Alcotest.run "timeseries"
    [
      ( "sketch",
        [
          Alcotest.test_case "basics" `Quick test_sketch_basics;
          Alcotest.test_case "alpha mismatch rejected" `Quick test_sketch_merge_alpha_mismatch;
        ] );
      ( "sketch-properties",
        [
          QCheck_alcotest.to_alcotest prop_merge_commutes_and_associates;
          QCheck_alcotest.to_alcotest prop_rank_error_bound;
          QCheck_alcotest.to_alcotest prop_sharded_merge_bit_identical;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "windows roll off the clock" `Quick test_timeseries_windows;
          Alcotest.test_case "merge bit-identical" `Quick test_timeseries_merge_bit_identical;
          Alcotest.test_case "exporters" `Quick test_timeseries_exporters;
        ] );
      ( "slo",
        [
          Alcotest.test_case "fire and clear" `Quick test_slo_fire_and_clear;
          Alcotest.test_case "short window gates stale burn" `Quick
            test_slo_short_window_gates_stale_burn;
          Alcotest.test_case "classification" `Quick test_slo_classification;
        ] );
      ( "flight-recorder",
        [
          Alcotest.test_case "dumps + validate" `Quick test_flight_recorder_dumps_and_validate;
        ] );
      ( "jobs-downgrade",
        [ Alcotest.test_case "collectors force serial" `Quick test_collectors_force_serial ] );
    ]
