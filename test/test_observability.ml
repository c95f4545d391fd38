(* Observability: request-scoped spans, the metrics registry, exporters,
   and the critical-path analyzer.

   The load-bearing invariants: instrumentation is sim-time neutral (a run
   with collectors attached is bit-identical to one without), span trees
   nest and close, per-request span durations agree exactly with the
   strategy's reported costs (exec = on-path time, restore = breakdown
   total, steps tile the restore), and the Chrome export round-trips
   through our own JSON parser. *)

module Engine = Gh_sim.Engine
module Time_ns = Gh_sim.Time_ns
module Trace = Gh_sim.Trace
module Span = Gh_sim.Span
module Metrics = Gh_sim.Metrics
module Json = Gh_sim.Json
module Critical_path = Gh_sim.Critical_path
module Reservoir = Gh_sim.Reservoir
module Rng = Gh_sim.Rng
module Fm = Gh_faas.Function_model
module Intf = Gh_faas.Strategy_intf
module Request = Gh_faas.Request
module Principal = Gh_faas.Principal
module Breakdown = Groundhog_core.Breakdown

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let alice = Principal.make ~id:1 ~name:"alice"
let bob = Principal.make ~id:2 ~name:"bob"
let principals = [| alice; bob |]

let spec =
  match Gh_workloads.Catalog.find "json (n)" with
  | Some e -> e.Gh_workloads.Catalog.spec
  | None -> Fm.default_spec

(* -- span primitives -- *)

let test_span_basics () =
  let t = Span.create () in
  let root = Span.ensure_root t ~at:10 ~req_id:1 () in
  check_bool "root open" true (Span.is_open root);
  let child = Span.start t ~at:20 ~parent:root ~name:"exec" () in
  Span.finish t ~at:50 child;
  check_int "child duration" 30
    (match Span.duration_ns child with Some d -> d | None -> -1);
  Span.finish_root t ~at:60 ~req_id:1 ();
  check_bool "root closed" false (Span.is_open root);
  check_int "all closed" 0 (Span.open_count t);
  check_int "records" 2 (Span.count t);
  (match Span.check t with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invariants: %s" msg);
  (* Closing twice is a bug at the call site, loudly. *)
  (match Span.finish t ~at:70 child with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "double close not rejected");
  match Span.complete t ~start:10 ~stop:5 ~name:"bad" () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative duration not rejected"

let test_span_check_detects_violations () =
  (* A child escaping its parent's interval must be caught. *)
  let t = Span.create () in
  let root = Span.ensure_root t ~at:0 ~req_id:1 () in
  ignore (Span.complete t ~start:5 ~stop:500 ~parent:root ~name:"runaway" ());
  Span.finish t ~at:100 root;
  (match Span.check t with
  | Ok () -> Alcotest.fail "escaping child not detected"
  | Error _ -> ());
  (* A never-closed span must be caught. *)
  let t2 = Span.create () in
  ignore (Span.start t2 ~at:0 ~name:"leaked" ());
  match Span.check t2 with
  | Ok () -> Alcotest.fail "open span not detected"
  | Error _ -> ()

let test_phases_and_watermark () =
  let t = Span.create () in
  ignore (Span.ensure_root t ~at:0 ~req_id:7 ());
  Span.phase_start t ~at:10 ~req_id:7 ~name:"queue" ();
  Span.phase_stop t ~at:40 ~req_id:7 ~name:"queue" ();
  (* Stopping an absent phase is a no-op, not an error. *)
  Span.phase_stop t ~at:41 ~req_id:7 ~name:"queue" ();
  (* A phase left open when the request ends is closed by finish_root. *)
  Span.phase_start t ~at:50 ~req_id:7 ~name:"stuck" ();
  (* Deferred work already scheduled past the completion time: the root
     must stretch to cover it (the watermark rule). *)
  let root = match Span.find_root t ~req_id:7 with Some r -> r | None -> assert false in
  ignore (Span.complete t ~start:60 ~stop:200 ~parent:root ~name:"restore" ());
  Span.finish_root t ~at:80 ~req_id:7 ();
  (match Span.check t with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invariants: %s" msg);
  check_int "root stretched to deferred stop" 200
    (match Span.duration_ns root with Some d -> d | None -> -1);
  check_int "nothing left open" 0 (Span.open_count t)

(* -- full-stack spans: every hand-off, exact durations -- *)

let deploy_with ?spans seed =
  let root = Rng.create seed in
  Gh_faas.Openwhisk.deploy ?spans
    { Gh_faas.Openwhisk.default_config with Gh_faas.Openwhisk.n_cores = 1; seed }
    ~make_strategy:(fun i ->
      match
        Gh_isolation.Registry.make Gh_isolation.Registry.Gh
          ~rng:(Rng.named_split root (string_of_int i))
          spec
      with
      | Ok s -> s
      | Error msg -> failwith msg)

let run_stack ?spans seed =
  let d = deploy_with ?spans seed in
  Gh_faas.Client.closed_loop d.Gh_faas.Openwhisk.engine d.Gh_faas.Openwhisk.controller
    ~n_requests:6 ~think_ns:(Time_ns.of_ms 25.0) ~principals ~input_kb:spec.Fm.input_kb

let test_stack_spans_close_and_nest () =
  let spans = Span.create () in
  let results = run_stack ~spans 42 in
  check_int "all requests completed" 6 results.Gh_faas.Client.completed;
  check_int "no span left open" 0 (Span.open_count spans);
  (match Span.check spans with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "span invariants: %s" msg);
  (* Every hand-off appears: controller front/return, exec, restore. *)
  let names = List.map (fun r -> r.Span.name) (Span.records spans) in
  List.iter
    (fun expected ->
      check_bool (expected ^ " present") true (List.mem expected names))
    [ "request"; "controller-front"; "controller-return"; "exec"; "gh-restore" ];
  check_int "one root per request" 6
    (List.length (List.filter (fun n -> n = "request") names))

let test_stack_span_durations_match_invocations () =
  (* The acceptance check: per-request span durations equal the strategy's
     reported costs exactly — exec = on_path_ns, the deferred restore =
     post_ns, and the restore's step children tile the Breakdown total. *)
  let spans = Span.create () in
  let d = deploy_with ~spans 42 in
  let recorded = Hashtbl.create 16 in
  let submitted = ref 0 in
  let rec submit_next () =
    if !submitted < 6 then begin
      incr submitted;
      let id = !submitted in
      let req =
        Request.make ~id ~principal:principals.((id - 1) mod 2) ~input_kb:spec.Fm.input_kb ()
      in
      Gh_faas.Controller.submit d.Gh_faas.Openwhisk.controller req
        ~on_complete:(fun c ->
          Hashtbl.replace recorded id c.Gh_faas.Controller.invocation;
          Engine.schedule d.Gh_faas.Openwhisk.engine ~after:(Time_ns.of_ms 25.0)
            submit_next)
    end
  in
  submit_next ();
  Engine.run_all d.Gh_faas.Openwhisk.engine;
  check_int "completed" 6 (Hashtbl.length recorded);
  let spans_of req_id =
    List.filter (fun r -> r.Span.track = req_id) (Span.records spans)
  in
  Hashtbl.iter
    (fun id (inv : Intf.invocation) ->
      let rs = spans_of id in
      let find name =
        match List.find_opt (fun r -> r.Span.name = name) rs with
        | Some r -> r
        | None -> Alcotest.failf "req#%d: missing %s span" id name
      in
      let dur r = match Span.duration_ns r with Some d -> d | None -> -1 in
      check_int
        (Printf.sprintf "req#%d exec = on_path_ns" id)
        inv.Intf.on_path_ns (dur (find "exec"));
      if inv.Intf.post_ns > 0 then begin
        let restore = find "gh-restore" in
        check_int
          (Printf.sprintf "req#%d restore = post_ns" id)
          inv.Intf.post_ns (dur restore);
        match inv.Intf.breakdown with
        | None -> ()
        | Some b ->
            let steps =
              List.filter
                (fun r -> r.Span.parent = Some restore.Span.id)
                rs
            in
            let sum = List.fold_left (fun n r -> n + dur r) 0 steps in
            check_int
              (Printf.sprintf "req#%d restore steps tile the breakdown" id)
              b.Breakdown.total_ns sum
      end)
    recorded

let test_stack_no_container_overlap () =
  (* Groundhog's buffering rule, observable in the spans: on one container,
     exec and restore intervals never overlap. *)
  let spans = Span.create () in
  ignore (run_stack ~spans 43);
  let with_container =
    List.filter_map
      (fun r ->
        match List.assoc_opt "container" r.Span.attrs with
        | Some c when not (Span.is_open r) -> Some (c, r.Span.start_ns, r.Span.stop_ns)
        | _ -> None)
      (Span.records spans)
  in
  check_bool "some container spans" true (with_container <> []);
  let by_container = Hashtbl.create 4 in
  List.iter
    (fun (c, s, e) ->
      let l = try Hashtbl.find by_container c with Not_found -> [] in
      Hashtbl.replace by_container c ((s, e) :: l))
    with_container;
  Hashtbl.iter
    (fun c intervals ->
      let sorted = List.sort compare intervals in
      ignore
        (List.fold_left
           (fun prev_end (s, e) ->
             if s < prev_end then
               Alcotest.failf "container %s: interval [%d,%d] overlaps previous end %d" c s
                 e prev_end;
             e)
           min_int sorted))
    by_container

let test_instrumentation_is_invisible () =
  (* Attaching a collector must not change a single simulated timestamp. *)
  let bare = run_stack 42 in
  let spans = Span.create () in
  let observed = run_stack ~spans 42 in
  Alcotest.(check (array (float 0.0)))
    "e2e identical" bare.Gh_faas.Client.e2e_ms observed.Gh_faas.Client.e2e_ms;
  Alcotest.(check (array (float 0.0)))
    "invoker identical" bare.Gh_faas.Client.invoker_ms observed.Gh_faas.Client.invoker_ms;
  check_bool "spans actually collected" true (Span.count spans > 0)

(* -- node spans + metrics -- *)

let run_node ?spans ?metrics seed =
  let root = Rng.create seed in
  let engine = Engine.create () in
  let node =
    Gh_faas.Node.create ~obs:{ Gh_sim.Obs.none with spans; metrics } engine
      { Gh_faas.Node.default_config with Gh_faas.Node.total_cores = 1 }
      ~make_strategy:(fun _name sp ->
        match
          Gh_isolation.Registry.make Gh_isolation.Registry.Gh ~rng:(Rng.named_split root "c")
            sp
        with
        | Ok s -> s
        | Error msg -> failwith msg)
  in
  Gh_faas.Node.register node ~name:"fn" spec;
  for i = 1 to 8 do
    Engine.at engine
      ~time:((i - 1) * Time_ns.of_ms 10.0)
      (fun () ->
        Gh_faas.Node.submit node ~name:"fn"
          (Request.make ~id:i ~principal:principals.((i - 1) mod 2)
             ~input_kb:spec.Fm.input_kb ()))
  done;
  Engine.run_all engine;
  node

let test_node_spans_and_metrics () =
  let spans = Span.create () in
  let metrics = Metrics.create () in
  let node = run_node ~spans ~metrics 42 in
  check_int "no span left open" 0 (Span.open_count spans);
  (match Span.check spans with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "span invariants: %s" msg);
  let names = List.map (fun r -> r.Span.name) (Span.records spans) in
  check_bool "node queue phase present" true (List.mem "node-queue" names);
  (* The registry and fn_stats are two views of the same counters. *)
  let stats = List.hd (Gh_faas.Node.stats node) in
  check_int "completed stat" 8 stats.Gh_faas.Node.completed;
  (match Metrics.find_counter metrics "node.fn.completed" with
  | Some c -> check_int "registry completed" 8 (Metrics.counter_value c)
  | None -> Alcotest.fail "node.fn.completed not registered");
  (match Metrics.find_histogram metrics "node.fn.e2e_ms" with
  | Some h ->
      check_int "histogram count" 8 (Metrics.hist_count h);
      Alcotest.(check (list (float 0.0)))
        "histogram sample = fn_stats e2e" stats.Gh_faas.Node.e2e_ms (Metrics.values h)
  | None -> Alcotest.fail "node.fn.e2e_ms not registered");
  (* Roots carry outcome + e2e for the critical-path analyzer. *)
  let roots = List.filter (fun r -> r.Span.name = "request") (Span.records spans) in
  check_int "one root per request" 8 (List.length roots);
  List.iter
    (fun r ->
      check_bool "root has outcome" true (List.mem_assoc "outcome" r.Span.attrs);
      check_bool "root has e2e_ns" true (List.mem_assoc "e2e_ns" r.Span.attrs))
    roots

let test_node_metrics_identical_counts () =
  (* The registry migration must not change a single statistic. *)
  let bare = run_node 42 in
  let metrics = Metrics.create () in
  let observed = run_node ~metrics 42 in
  let s1 = List.hd (Gh_faas.Node.stats bare) in
  let s2 = List.hd (Gh_faas.Node.stats observed) in
  check_int "completed" s1.Gh_faas.Node.completed s2.Gh_faas.Node.completed;
  check_int "cold starts" s1.Gh_faas.Node.cold_starts s2.Gh_faas.Node.cold_starts;
  Alcotest.(check (list (float 0.0))) "e2e samples" s1.Gh_faas.Node.e2e_ms s2.Gh_faas.Node.e2e_ms

(* -- metrics registry -- *)

let test_metrics_registry () =
  let m = Metrics.create () in
  let c = Metrics.counter m "requests" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  check_int "counter" 5 (Metrics.counter_value c);
  check_bool "find-or-create returns same handle" true (Metrics.counter m "requests" == c);
  let g = Metrics.gauge m "depth" in
  Metrics.set g 3.0;
  Alcotest.(check (float 0.0)) "gauge" 3.0 (Metrics.gauge_value g);
  (match Metrics.counter m "depth" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind clash not rejected");
  let h = Metrics.histogram m "lat" ~seed:7 ~capacity:100 in
  for i = 1 to 10 do
    Metrics.observe h (float_of_int i)
  done;
  check_int "hist count" 10 (Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "hist mean" 5.5 (Metrics.hist_mean h);
  check_int "snapshot size" 3 (List.length (Metrics.snapshot m))

let test_metrics_all_sampling_matches_reservoir () =
  (* A histogram with a pinned seed is the drop-in replacement for a raw
     reservoir: same adds, same kept sample, in the same order. *)
  let seed = Hashtbl.hash ("node-e2e", "fn") in
  let res = Reservoir.create ~seed 16 in
  let m = Metrics.create () in
  let h = Metrics.histogram m "e2e" ~seed ~capacity:16 in
  let rng = Rng.create 99 in
  for _ = 1 to 200 do
    let v = Rng.float rng 100.0 in
    Reservoir.add res v;
    Metrics.observe h v
  done;
  Alcotest.(check (list (float 0.0)))
    "identical samples" (Reservoir.to_list res) (Metrics.values h)

let test_metrics_render () =
  let m = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter m "b.count");
  Metrics.set (Metrics.gauge m "a.depth") 2.0;
  let h = Metrics.histogram m "c.lat" ~seed:1 in
  List.iter (Metrics.observe h) [ 1.0; 2.0; 3.0; 4.0 ];
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Metrics.render ppf m;
  Format.pp_print_flush ppf ();
  let lines = String.split_on_char '\n' (String.trim (Buffer.contents buf)) in
  check_int "one line per metric" 3 (List.length lines);
  let fields l = String.split_on_char ' ' l |> List.filter (( <> ) "") in
  check_bool "sorted by name" true
    (match lines with
    | [ a; b; c ] ->
        let name l = List.nth (fields l) 1 in
        name a < name b && name b < name c
    | _ -> false);
  Alcotest.(check (list (list string))) "counter line carries its value"
    [ [ "counter"; "b.count"; "3" ] ]
    (List.filter (fun f -> List.nth f 1 = "b.count") (List.map fields lines))

(* -- exporters -- *)

let test_chrome_round_trip () =
  let spans = Span.create () in
  ignore (run_stack ~spans 42);
  let doc = Span.chrome_json spans in
  match Json.of_string doc with
  | Error msg -> Alcotest.failf "chrome JSON does not parse: %s" msg
  | Ok json -> (
      match Span.validate_chrome json with
      | Error msg -> Alcotest.failf "chrome schema: %s" msg
      | Ok n ->
          (* All closed spans plus process metadata plus one thread row per
             request. *)
          check_int "event count" (Span.count spans + 1 + 6) n)

(* Under `dune runtest` the golden file sits beside the executable; under
   `dune exec` from the workspace root it is in test/. *)
let golden_path =
  if Sys.file_exists "golden_trace.json" then "golden_trace.json"
  else "test/golden_trace.json"

(* A fixed scenario for the golden file: hand-authored spans with stable
   ids and timestamps, so the export is identical on every run. *)
let golden_spans () =
  let t = Span.create () in
  let root =
    Span.ensure_root t ~at:0 ~req_id:1 ~attrs:[ ("principal", "alice") ] ()
  in
  ignore
    (Span.complete t ~start:0 ~stop:1_000_000 ~parent:root ~name:"controller-front"
       ~cat:"controller" ());
  let exec =
    Span.complete t ~start:1_000_000 ~stop:5_000_000 ~parent:root ~name:"exec"
      ~cat:"container"
      ~attrs:[ ("container", "0"); ("outcome", "completed") ]
      ()
  in
  ignore
    (Span.complete t ~start:4_000_000 ~stop:5_000_000 ~parent:exec ~name:"actionloop-io"
       ~cat:"io" ());
  let restore =
    Span.complete t ~start:5_000_000 ~stop:7_000_000 ~parent:root ~name:"gh-restore"
      ~cat:"restore" ~attrs:[ ("offpath", "true") ] ()
  in
  ignore
    (Span.complete t ~start:5_000_000 ~stop:7_000_000 ~parent:restore ~name:"copy"
       ~cat:"restore-step" ());
  Span.finish_root t ~at:5_500_000 ~attrs:[ ("e2e_ns", "5500000") ] ~req_id:1 ();
  t

let test_golden_chrome_trace () =
  let produced = Span.chrome_json (golden_spans ()) in
  let expected = In_channel.with_open_text golden_path In_channel.input_all in
  check_string "golden trace file" (String.trim expected) (String.trim produced)

let contains ~sub s =
  let n = String.length sub in
  let rec from i = i + n <= String.length s && (String.sub s i n = sub || from (i + 1)) in
  from 0

(* The writer prints microseconds from integer nanoseconds; these are the
   edges of that path (carries, trailing zeros, the 10^12 ns limit of its
   exactness, negatives), checked against the literal text and against
   the tree exporter it replaced. *)
let test_chrome_us_edges () =
  let tera = 1_000_000_000_000 in
  List.iter
    (fun (ns, text) ->
      let t = Span.create () in
      ignore (Span.complete t ~start:ns ~stop:ns ~name:"at" ());
      if ns >= 0 then ignore (Span.complete t ~start:0 ~stop:ns ~track:1 ~name:"for" ());
      let doc = Span.chrome_json t in
      check_string (Printf.sprintf "ns=%d matches the tree export" ns)
        (Json.to_string (Chrome_oracle.to_chrome t)) doc;
      check_bool (Printf.sprintf "ts of %d ns is %s" ns text) true
        (contains ~sub:(Printf.sprintf {|"ts":%s,"dur":0,|} text) doc);
      if ns >= 0 then
        check_bool (Printf.sprintf "dur of %d ns is %s" ns text) true
          (contains ~sub:(Printf.sprintf {|"ts":0,"dur":%s,|} text) doc))
    [
      (0, "0");
      (1, "0.001");
      (10, "0.01");
      (999, "0.999");
      (1000, "1");
      (1001, "1.001");
      (tera - 1, "999999999.999");
      (tera, "1000000000");
      (-1, "-0.001");
    ];
  (* A track whose only span is still open gets its thread row, not an
     event. *)
  let t = Span.create () in
  ignore (Span.start t ~at:5 ~track:9 ~name:"open" ());
  let doc = Span.chrome_json t in
  check_string "open-only track matches the tree export"
    (Json.to_string (Chrome_oracle.to_chrome t)) doc;
  check_bool "thread row for the open track" true (contains ~sub:{|"name":"request 9"|} doc);
  check_bool "no event for the open span" false (contains ~sub:{|"ph":"X"|} doc)

let test_json_add_int () =
  List.iter
    (fun i ->
      let b = Buffer.create 24 in
      Json.add_int b i;
      check_string (string_of_int i) (string_of_int i) (Buffer.contents b))
    [ 0; 1; 9; 10; 99; 100; -1; -9; -10; 1_000_000_000_000; max_int; min_int; min_int + 1 ]

(* -- critical path -- *)

let test_critical_path_attribution () =
  let spans = golden_spans () in
  let report = Critical_path.analyze spans in
  check_int "one request" 1 report.Critical_path.total_requests;
  List.iter
    (fun b ->
      (* e2e 5.5 ms: exec self 3 ms dominates (io child excluded), the
         offpath restore contributes nothing. *)
      (match Critical_path.dominating b with
      | Some p ->
          check_string
            (b.Critical_path.label ^ " dominated by exec")
            "exec" p.Critical_path.phase_name;
          check_int "exec self excludes io child" 3_000_000 p.Critical_path.self_ns
      | None -> Alcotest.fail "no dominating phase");
      check_bool "restore is off the path" true
        (not
           (List.exists
              (fun p -> p.Critical_path.phase_name = "gh-restore")
              b.Critical_path.phases)))
    report.Critical_path.buckets

let test_critical_path_from_stack () =
  let spans = Span.create () in
  ignore (run_stack ~spans 42);
  let report = Critical_path.analyze spans in
  check_int "all requests bucketed" 6 report.Critical_path.total_requests;
  check_int "p50/p90/p99" 3 (List.length report.Critical_path.buckets);
  List.iter
    (fun b ->
      match Critical_path.dominating b with
      | Some p -> check_bool "share positive" true (p.Critical_path.share > 0.0)
      | None -> Alcotest.fail "no dominating phase")
    report.Critical_path.buckets

(* -- trace ring-buffer index -- *)

let test_trace_find_indexed () =
  (* find must agree with a linear scan, including after the ring evicts. *)
  let t = Trace.create ~capacity:8 () in
  for i = 1 to 30 do
    Trace.emitf t ~at:i ~category:(if i mod 3 = 0 then "a" else "b") ~what:"w" "e%d" i
  done;
  let linear cat =
    List.filter (fun (e : Trace.event) -> e.Trace.category = cat) (Trace.events t)
  in
  List.iter
    (fun cat ->
      let expected = List.map (fun (e : Trace.event) -> e.Trace.detail) (linear cat) in
      let got = List.map (fun (e : Trace.event) -> e.Trace.detail) (Trace.find t ~category:cat) in
      Alcotest.(check (list string)) ("find " ^ cat) expected got)
    [ "a"; "b"; "missing" ]

let test_trace_emitf_opt () =
  let t = Trace.create () in
  Trace.emitf_opt (Some t) ~at:5 ~category:"c" ~what:"w" "hello %d" 42;
  Trace.emitf_opt None ~at:6 ~category:"c" ~what:"w" "dropped %d" 43;
  check_int "only the Some emits" 1 (List.length (Trace.events t));
  check_string "formatted" "hello 42"
    (match Trace.events t with [ e ] -> e.Trace.detail | _ -> "?")

(* -- properties -- *)

let prop_random_trees_nest =
  QCheck2.Test.make ~name:"random span trees pass check and export valid Chrome JSON"
    ~count:60
    QCheck2.Gen.(list_size (int_range 0 20) (pair (int_range 0 1000) (int_range 0 1000)))
    (fun children ->
      let t = Span.create () in
      let root = Span.ensure_root t ~at:0 ~req_id:1 () in
      List.iter
        (fun (s, d) -> ignore (Span.complete t ~start:s ~stop:(s + d) ~parent:root ~name:"c" ()))
        children;
      Span.finish_root t ~at:100 ~req_id:1 ();
      (match Span.check t with
      | Ok () -> ()
      | Error msg -> QCheck2.Test.fail_reportf "check failed: %s" msg);
      match Json.of_string (Span.chrome_json t) with
      | Error msg -> QCheck2.Test.fail_reportf "export does not parse: %s" msg
      | Ok json -> (
          match Span.validate_chrome json with
          | Ok _ -> true
          | Error msg -> QCheck2.Test.fail_reportf "export invalid: %s" msg))

let prop_json_round_trip =
  QCheck2.Test.make ~name:"JSON writer output re-parses to the same document" ~count:100
    (let open QCheck2.Gen in
     let leaf =
       oneof
         [
           return Json.Null;
           map (fun b -> Json.Bool b) bool;
           map (fun i -> Json.Int i) (int_range (-1000000) 1000000);
           map (fun s -> Json.String s) (string_size ~gen:printable (int_range 0 12));
         ]
     in
     sized (fun n ->
         fix
           (fun self (n : int) ->
             if n <= 0 then leaf
             else
               oneof
                 [
                   leaf;
                   map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n / 2)));
                   map
                     (fun kvs -> Json.Assoc kvs)
                     (list_size (int_range 0 4)
                        (pair (string_size ~gen:printable (int_range 1 8)) (self (n / 2))));
                 ])
           (min n 6)))
    (fun doc ->
      match Json.of_string (Json.to_string doc) with
      | Ok parsed -> parsed = doc
      | Error msg -> QCheck2.Test.fail_reportf "parse failed: %s" msg)

(* Strings with the bytes JSON must escape (quote, backslash, every
   control character) mixed with plain ASCII and bytes >= 0x80. *)
let gen_awkward_string =
  let open QCheck2.Gen in
  string_size (int_range 0 8)
    ~gen:
      (frequency
         [
           (3, printable);
           (1, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\031'; '\127'; '\128'; '\255' ]);
           (1, char_range '\000' '\031');
         ])

let prop_json_escapes_control_bytes =
  QCheck2.Test.make ~name:"JSON strings escape every control byte and round-trip" ~count:300
    ~print:(Printf.sprintf "%S") gen_awkward_string (fun s ->
      (* The parser takes raw control bytes, so the round trip alone would
         not see one left unescaped; an unescaped quote or backslash it
         does see. *)
      let text = Json.to_string (Json.String s) in
      if String.exists (fun c -> Char.code c < 0x20) text then
        QCheck2.Test.fail_reportf "raw control byte in %S" text
      else Json.of_string text = Ok (Json.String s))

(* Span sets for the writer/oracle property: awkward strings, timestamps
   on both sides of every edge of the integer microsecond path, parents
   present and absent, spans left open, and tracks holding only open
   spans. Each element is (name, cat, attrs, track, start, duration or
   None to leave the span open, index of an earlier span as parent). *)
let gen_span_specs =
  let open QCheck2.Gen in
  let tera = 1_000_000_000_000 in
  let dur_ns =
    oneof
      [
        map (fun us -> us * 1000) (int_range 0 1_000_000_000);
        int_range 0 2_000;
        int_range 0 (tera - 1);
        int_range tera (1000 * tera);
      ]
  in
  let start_ns = oneof [ dur_ns; int_range (-1000 * tera) (-1) ] in
  let spec =
    tup7 gen_awkward_string gen_awkward_string
      (list_size (int_range 0 3) (pair gen_awkward_string gen_awkward_string))
      (int_range (-2) 6) start_ns (opt ~ratio:0.7 dur_ns) (opt (int_range 0 100))
  in
  list_size (int_range 0 12) spec

let print_span_specs specs =
  String.concat "; "
    (List.map
       (fun (name, cat, attrs, track, start, dur, parent) ->
         Printf.sprintf "%S/%S [%s] track %d start %d %s parent %s" name cat
           (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S=%S" k v) attrs))
           track start
           (match dur with Some d -> Printf.sprintf "dur %d" d | None -> "open")
           (match parent with Some j -> string_of_int j | None -> "-"))
       specs)

let spans_of_specs specs =
  let t = Span.create () in
  let made = Array.make (List.length specs) None in
  List.iteri
    (fun i (name, cat, attrs, track, start, dur, parent) ->
      let parent = match parent with Some j when i > 0 -> made.(j mod i) | _ -> None in
      let r =
        match dur with
        | Some d -> Span.complete t ~start ~stop:(start + d) ?parent ~track ~name ~cat ~attrs ()
        | None -> Span.start t ~at:start ?parent ~track ~name ~cat ~attrs ()
      in
      made.(i) <- Some r)
    specs;
  t

let prop_chrome_writer_matches_tree =
  QCheck2.Test.make ~name:"direct Chrome writer prints exactly what the Json.t tree printed"
    ~count:500 ~print:print_span_specs gen_span_specs (fun specs ->
      let t = spans_of_specs specs in
      let direct = Span.chrome_json t and tree = Json.to_string (Chrome_oracle.to_chrome t) in
      direct = tree
      || QCheck2.Test.fail_reportf "direct writer:\n%s\ntree exporter:\n%s" direct tree)

(* [Json.of_string] reads outside files ([gh-bench trace-validate]): on
   any input it answers [Ok] or [Error] and never raises. Inputs: strings
   over a JSON-ish alphabet, and truncations and byte flips of a real
   Chrome document. *)
let prop_json_parse_total =
  let doc = Span.chrome_json (golden_spans ()) in
  let open QCheck2.Gen in
  let jsonish =
    string_size (int_range 0 40)
      ~gen:
        (frequency
           [
             (4, oneofl [ '{'; '}'; '['; ']'; '"'; ','; ':'; '\\'; ' ' ]);
             (3, oneofl [ '0'; '1'; '9'; '-'; '+'; '.'; 'e'; 'E' ]);
             (2, oneofl [ 't'; 'r'; 'u'; 'e'; 'f'; 'a'; 'l'; 's'; 'n'; 'b'; 'x'; '/' ]);
             (1, char);
           ])
  in
  let damaged =
    map2
      (fun pos (byte, truncate) ->
        if truncate then String.sub doc 0 pos
        else String.mapi (fun i c -> if i = pos then byte else c) doc)
      (int_range 0 (String.length doc - 1))
      (pair char bool)
  in
  QCheck2.Test.make ~name:"Json.of_string returns Ok or Error on any input, never raises"
    ~count:1000 ~print:(Printf.sprintf "%S")
    (frequency [ (1, jsonish); (1, damaged) ])
    (fun s ->
      match Json.of_string s with
      | Ok _ | Error _ -> true
      | exception e -> QCheck2.Test.fail_reportf "raised %s" (Printexc.to_string e))

let () =
  Alcotest.run "observability"
    [
      ( "span",
        [
          Alcotest.test_case "basics" `Quick test_span_basics;
          Alcotest.test_case "violations detected" `Quick test_span_check_detects_violations;
          Alcotest.test_case "phases + watermark" `Quick test_phases_and_watermark;
        ] );
      ( "stack-spans",
        [
          Alcotest.test_case "close and nest" `Quick test_stack_spans_close_and_nest;
          Alcotest.test_case "durations match invocations" `Quick
            test_stack_span_durations_match_invocations;
          Alcotest.test_case "no container overlap" `Quick test_stack_no_container_overlap;
          Alcotest.test_case "instrumentation invisible" `Quick
            test_instrumentation_is_invisible;
        ] );
      ( "node",
        [
          Alcotest.test_case "spans + metrics" `Quick test_node_spans_and_metrics;
          Alcotest.test_case "registry migration identical" `Quick
            test_node_metrics_identical_counts;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "All sampling = reservoir" `Quick
            test_metrics_all_sampling_matches_reservoir;
          Alcotest.test_case "render + json" `Quick test_metrics_render;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome round-trip" `Quick test_chrome_round_trip;
          Alcotest.test_case "golden chrome trace" `Quick test_golden_chrome_trace;
          Alcotest.test_case "chrome microsecond edges" `Quick test_chrome_us_edges;
          Alcotest.test_case "json add_int" `Quick test_json_add_int;
        ] );
      ( "critical-path",
        [
          Alcotest.test_case "attribution" `Quick test_critical_path_attribution;
          Alcotest.test_case "from the stack" `Quick test_critical_path_from_stack;
        ] );
      ( "trace-index",
        [
          Alcotest.test_case "find matches linear scan" `Quick test_trace_find_indexed;
          Alcotest.test_case "emitf_opt" `Quick test_trace_emitf_opt;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_random_trees_nest;
          QCheck_alcotest.to_alcotest prop_json_round_trip;
          QCheck_alcotest.to_alcotest prop_json_escapes_control_bytes;
          QCheck_alcotest.to_alcotest prop_chrome_writer_matches_tree;
          QCheck_alcotest.to_alcotest prop_json_parse_total;
        ] );
    ]
