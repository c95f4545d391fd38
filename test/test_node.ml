(* Tests for the multi-tenant node: pooling, cold starts, queueing under
   core and memory pressure, idle eviction, and the tenant experiment. *)

module Fm = Gh_faas.Function_model
module Intf = Gh_faas.Strategy_intf
module Request = Gh_faas.Request
module Principal = Gh_faas.Principal
module Node = Gh_faas.Node
module Engine = Gh_sim.Engine
module Time_ns = Gh_sim.Time_ns

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let alice = Principal.make ~id:1 ~name:"alice"

(* A strategy with fixed costs and a configurable snapshot buffer, so tests
   control memory arithmetic exactly. *)
let strategy ~exec_ms ~init_ms ~buffer_pages =
  {
    (Intf.stateless ~name:"fixed" ~init_ns:(Time_ns.of_ms init_ms) (fun req ->
         Intf.invocation ~on_path_ns:(Time_ns.of_ms exec_ms) ~outcome:Intf.Completed
           { Fm.value = req.Request.id; residue = []; output_kb = 1; crashed = false;
             hung = false }))
    with
    Intf.snapshot_pages = (fun () -> buffer_pages);
  }

(* 256 pages = 1 MB. *)
let spec ~mapped_mb =
  { Fm.default_spec with Fm.name = "node-fn"; mapped_pages = mapped_mb * 256 }

let make_node ?(cores = 2) ?(memory_mb = 64) ?(idle_timeout_s = 5.0) ?(admission = Gh_faas.Admission.unbounded) ?brownout engine ~strategy_of =
  Node.create engine
    {
      Node.total_cores = cores;
      memory_mb;
      idle_timeout = Time_ns.of_sec idle_timeout_s;
      dispatch_ns = 0;
      admission;
      brownout;
      scrub = None;
    }
    ~make_strategy:strategy_of

let submit_n node ~name n =
  for i = 1 to n do
    Node.submit node ~name (Request.make ~id:i ~principal:alice ())
  done

let stats_of node name =
  List.find (fun (s : Node.fn_stats) -> s.Node.fn_name = name) (Node.stats node)

let test_cold_start_then_reuse () =
  let engine = Engine.create () in
  let node =
    make_node engine ~strategy_of:(fun _ _ -> strategy ~exec_ms:2.0 ~init_ms:100.0 ~buffer_pages:0)
  in
  Node.register node ~name:"f" (spec ~mapped_mb:4);
  submit_n node ~name:"f" 1;
  (* Bounded run: Engine.run_all would also fire the future eviction timer. *)
  Engine.run engine ~until:(Time_ns.of_ms 500.0);
  let s = stats_of node "f" in
  check_int "one cold start" 1 s.Node.cold_starts;
  check_int "one container" 1 s.Node.containers;
  (match s.Node.e2e_ms with
  | [ first ] -> check_bool "first request paid init" true (first >= 100.0)
  | _ -> Alcotest.fail "one latency expected");
  (* A second request shortly after reuses the warm container. *)
  submit_n node ~name:"f" 1;
  Engine.run engine ~until:(Time_ns.of_ms 1000.0);
  let s = stats_of node "f" in
  check_int "still one cold start" 1 s.Node.cold_starts;
  match s.Node.e2e_ms with
  | [ second; _ ] -> check_bool "warm request is fast" true (second < 3.0)
  | _ -> Alcotest.fail "two latencies expected"

let test_parallel_demand_spawns_containers () =
  let engine = Engine.create () in
  let node =
    make_node engine ~cores:4
      ~strategy_of:(fun _ _ -> strategy ~exec_ms:50.0 ~init_ms:10.0 ~buffer_pages:0)
  in
  Node.register node ~name:"f" (spec ~mapped_mb:1);
  (* Three simultaneous requests: three containers (cores allow). *)
  submit_n node ~name:"f" 3;
  check_int "three busy cores" 3 (Node.cores_busy node);
  Engine.run_all engine;
  let s = stats_of node "f" in
  check_int "three cold starts" 3 s.Node.cold_starts;
  check_int "all served" 3 s.Node.completed

let test_core_limit_queues () =
  let engine = Engine.create () in
  let node =
    make_node engine ~cores:2
      ~strategy_of:(fun _ _ -> strategy ~exec_ms:10.0 ~init_ms:0.0 ~buffer_pages:0)
  in
  Node.register node ~name:"f" (spec ~mapped_mb:1);
  submit_n node ~name:"f" 5;
  check_int "only two dispatched" 2 (Node.cores_busy node);
  let s = stats_of node "f" in
  check_int "three queued" 3 s.Node.queue_len;
  Engine.run_all engine;
  let s = stats_of node "f" in
  check_int "all eventually served" 5 s.Node.completed;
  check_int "no third container beyond cores" 2 s.Node.cold_starts

let test_memory_limit_blocks_cold_start () =
  let engine = Engine.create () in
  let node =
    make_node engine ~cores:4 ~memory_mb:40
      ~strategy_of:(fun _ _ -> strategy ~exec_ms:10.0 ~init_ms:0.0 ~buffer_pages:0)
  in
  (* Each container pins 16 MB: only two fit in 40 MB. *)
  Node.register node ~name:"f" (spec ~mapped_mb:16);
  submit_n node ~name:"f" 3;
  check_int "two containers admitted" 32 (Node.memory_used_mb node);
  let s = stats_of node "f" in
  check_int "third request waits for a warm container" 1 s.Node.queue_len;
  Engine.run_all engine;
  check_int "served after a container freed up" 3 (stats_of node "f").Node.completed

let test_snapshot_buffer_counts_against_memory () =
  let engine = Engine.create () in
  let node =
    make_node engine ~cores:4 ~memory_mb:40
      ~strategy_of:(fun _ _ ->
        (* 16 MB footprint + 16 MB manager buffer = 32 MB per container. *)
        strategy ~exec_ms:10.0 ~init_ms:0.0 ~buffer_pages:(16 * 256))
  in
  Node.register node ~name:"f" (spec ~mapped_mb:16);
  submit_n node ~name:"f" 2;
  check_int "only one eager container fits" 32 (Node.memory_used_mb node);
  check_int "one busy" 1 (Node.cores_busy node);
  Engine.run_all engine;
  check_int "both served serially" 2 (stats_of node "f").Node.completed

let test_idle_eviction_frees_memory () =
  let engine = Engine.create () in
  let node =
    make_node engine ~idle_timeout_s:1.0
      ~strategy_of:(fun _ _ -> strategy ~exec_ms:2.0 ~init_ms:0.0 ~buffer_pages:0)
  in
  Node.register node ~name:"f" (spec ~mapped_mb:8);
  submit_n node ~name:"f" 1;
  Engine.run engine ~until:(Time_ns.of_ms 500.0);
  check_bool "memory held while warm" true (Node.memory_used_mb node > 0);
  check_int "no eviction yet" 0 (Node.total_evictions node);
  (* Idle past the timeout: the container is shut down. *)
  Engine.run engine ~until:(Time_ns.of_sec 2.0);
  check_int "evicted" 1 (Node.total_evictions node);
  check_int "memory freed" 0 (Node.memory_used_mb node);
  (* The next request cold-starts again. *)
  submit_n node ~name:"f" 1;
  Engine.run engine ~until:(Time_ns.of_sec 2.5);
  check_int "second cold start" 2 (stats_of node "f").Node.cold_starts

let test_reuse_resets_eviction_clock () =
  let engine = Engine.create () in
  let node =
    make_node engine ~idle_timeout_s:1.0
      ~strategy_of:(fun _ _ -> strategy ~exec_ms:2.0 ~init_ms:0.0 ~buffer_pages:0)
  in
  Node.register node ~name:"f" (spec ~mapped_mb:8);
  submit_n node ~name:"f" 1;
  (* Keep poking it every 0.6 s: never idle long enough to evict. *)
  for k = 1 to 4 do
    Engine.schedule engine
      ~after:(k * Time_ns.of_ms 600.0)
      (fun () -> Node.submit node ~name:"f" (Request.make ~id:(100 + k) ~principal:alice ()))
  done;
  (* Stop before the post-last-use timeout would expire. *)
  Engine.run engine ~until:(Time_ns.of_ms 3_000.0);
  check_int "never evicted while active" 0 (Node.total_evictions node);
  check_int "one container the whole time" 1 (stats_of node "f").Node.cold_starts

let test_functions_isolated_pools () =
  let engine = Engine.create () in
  let node =
    make_node engine ~cores:4
      ~strategy_of:(fun name _ ->
        strategy ~exec_ms:(if name = "slow" then 50.0 else 1.0) ~init_ms:0.0 ~buffer_pages:0)
  in
  Node.register node ~name:"slow" (spec ~mapped_mb:2);
  Node.register node ~name:"fast" (spec ~mapped_mb:2);
  submit_n node ~name:"slow" 2;
  submit_n node ~name:"fast" 2;
  Engine.run_all engine;
  check_int "slow served" 2 (stats_of node "slow").Node.completed;
  check_int "fast served" 2 (stats_of node "fast").Node.completed;
  check_bool "separate pools" true
    ((stats_of node "slow").Node.cold_starts >= 1 && (stats_of node "fast").Node.cold_starts >= 1);
  Alcotest.check_raises "duplicate registration"
    (Invalid_argument "Node.register: duplicate function") (fun () ->
      Node.register node ~name:"slow" (spec ~mapped_mb:1))

let test_unknown_function () =
  let engine = Engine.create () in
  let node =
    make_node engine ~strategy_of:(fun _ _ -> strategy ~exec_ms:1.0 ~init_ms:0.0 ~buffer_pages:0)
  in
  Alcotest.check_raises "unknown" Not_found (fun () ->
      Node.submit node ~name:"ghost" (Request.make ~id:1 ~principal:alice ()))

(* -- Tenant experiment -- *)

let tenant_cfg = { Gh_harness.Config.quick with Gh_harness.Config.seed = 7 }

let tenant_run cfg ~memory_budgets_mb =
  Gh_harness.Tenant_exp.run cfg ~memory_budgets_mb ~duration_s:4.0 ~rate_rps:5.0
    (List.filter_map Gh_workloads.Catalog.find [ "version (p)"; "jacobi-1d (c)" ])

let test_tenant_experiment_shape () =
  let results = tenant_run tenant_cfg ~memory_budgets_mb:[ 256 ] in
  check_int "three modes" 3 (List.length results);
  List.iter
    (fun (r : Gh_harness.Tenant_exp.result) ->
      check_bool "requests completed" true (r.Gh_harness.Tenant_exp.completed > 0);
      check_bool "cold starts happened" true (r.Gh_harness.Tenant_exp.cold_starts > 0);
      check_int "nothing left queued at this budget" 0 r.Gh_harness.Tenant_exp.leftover_queue)
    results;
  (* Identical arrivals across modes. *)
  match results with
  | [ a; b; c ] ->
      check_int "same demand (base vs eager)" a.Gh_harness.Tenant_exp.completed
        b.Gh_harness.Tenant_exp.completed;
      check_int "same demand (base vs incr)" a.Gh_harness.Tenant_exp.completed
        c.Gh_harness.Tenant_exp.completed
  | _ -> Alcotest.fail "three results"

(* Collectors only read: attaching a shared registry must not move a row.
   Every (budget, mode) cell counts into it, so cells that shared a
   metric name would add onto each other's counters. *)
let test_tenant_rows_ignore_shared_registry () =
  let run cfg = tenant_run cfg ~memory_budgets_mb:[ 256; 192 ] in
  let plain = run tenant_cfg in
  let shared =
    run { tenant_cfg with Gh_harness.Config.metrics = Some (Gh_sim.Metrics.create ()) }
  in
  let completed =
    List.map (fun (r : Gh_harness.Tenant_exp.result) -> r.Gh_harness.Tenant_exp.completed)
  in
  Alcotest.(check (list int)) "completed per row" (completed plain) (completed shared);
  check_bool "identical rows" true (compare plain shared = 0)

let () =
  Alcotest.run "gh_node"
    [
      ( "pooling",
        [
          Alcotest.test_case "cold start then reuse" `Quick test_cold_start_then_reuse;
          Alcotest.test_case "parallel demand spawns" `Quick test_parallel_demand_spawns_containers;
          Alcotest.test_case "core limit queues" `Quick test_core_limit_queues;
          Alcotest.test_case "memory limit blocks" `Quick test_memory_limit_blocks_cold_start;
          Alcotest.test_case "snapshot buffer counts" `Quick
            test_snapshot_buffer_counts_against_memory;
          Alcotest.test_case "idle eviction" `Quick test_idle_eviction_frees_memory;
          Alcotest.test_case "reuse resets eviction clock" `Quick test_reuse_resets_eviction_clock;
          Alcotest.test_case "separate pools" `Quick test_functions_isolated_pools;
          Alcotest.test_case "unknown function" `Quick test_unknown_function;
        ] );
      ( "tenant-exp",
        [
          Alcotest.test_case "shape" `Quick test_tenant_experiment_shape;
          Alcotest.test_case "shared registry leaves rows unchanged" `Quick
            test_tenant_rows_ignore_shared_registry;
        ] );
    ]
