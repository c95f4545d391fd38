(* Unit tests for the FaaS layer: principals, requests, services, runtimes,
   function models, and the discrete-event platform. *)

open Gh_faas
module As = Gh_mem.Address_space
module Account = Gh_sim.Account
module Rng = Gh_sim.Rng
module Engine = Gh_sim.Engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let alice = Principal.make ~id:1 ~name:"alice"
let bob = Principal.make ~id:2 ~name:"bob"

let acct () = Account.create ()

(* -- Principals / requests -- *)

let test_secret_tagging () =
  let s1 = Principal.secret_word alice ~nonce:5 in
  let s2 = Principal.secret_word alice ~nonce:6 in
  let s3 = Principal.secret_word bob ~nonce:5 in
  check_bool "nonzero" true (s1 <> 0);
  check_bool "nonce varies" true (s1 <> s2);
  check_bool "principal varies" true (s1 <> s3);
  check_bool "alice owns hers" true (Principal.owns_word alice s1);
  check_bool "alice does not own bob's" false (Principal.owns_word alice s3);
  check_bool "zero owned by nobody" false (Principal.owns_word alice 0)

let test_request_defaults () =
  let r = Request.make ~id:9 ~principal:alice () in
  check_int "nonce defaults to id" 9 r.Request.nonce;
  check_int "default payload" 4 r.Request.input_kb;
  check_bool "secret is alice's" true (Principal.owns_word alice (Request.secret r))

(* -- Services -- *)

let test_services_acl () =
  let s = Services.create () in
  Services.grant s alice ~key:"k";
  (match Services.put s alice ~key:"k" 42 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "alice may write");
  (match Services.get s alice ~key:"k" with
  | Ok (Some v) -> check_int "read back" 42 v
  | _ -> Alcotest.fail "alice may read");
  (match Services.get s bob ~key:"k" with
  | Error (Services.Access_denied _) -> ()
  | _ -> Alcotest.fail "bob must be denied")

(* -- Runtime -- *)

let test_runtime_properties () =
  let c = Runtime.for_lang Runtime.C in
  let p = Runtime.for_lang Runtime.Python in
  let n = Runtime.for_lang Runtime.Nodejs in
  check_int "C single-threaded" 1 c.Runtime.threads;
  check_int "Python single-threaded" 1 p.Runtime.threads;
  check_bool "Node multi-threaded" true (n.Runtime.threads > 1);
  check_bool "Node maps most memory" true (n.Runtime.text_pages > p.Runtime.text_pages);
  check_bool "Node churns most" true (n.Runtime.layout_churn > p.Runtime.layout_churn);
  check_bool "Node GC is time-dependent" true n.Runtime.gc_time_dependent;
  Alcotest.(check string) "suffix" "(p)" (Runtime.lang_suffix Runtime.Python)

(* -- Function model -- *)

let small_spec =
  {
    Function_model.default_spec with
    Function_model.name = "unit";
    mapped_pages = 2_000;
    dirtied_pages = 64;
    read_pages = 200;
  }

let build_warm ?(spec = small_spec) () =
  let inst = Function_model.build spec in
  let rng = Rng.create 1 in
  ignore (Function_model.warmup inst (acct ()) rng);
  Function_model.mark_clean inst;
  (inst, rng)

let test_model_dirties_expected_pages () =
  let inst, rng = build_warm () in
  let p = Function_model.proc inst in
  (match Gh_proc.Procfs.clear_refs (acct ()) p with Ok () -> () | Error _ -> assert false);
  let a = acct () in
  let req = Request.make ~id:1 ~principal:alice () in
  ignore (Function_model.invoke inst a rng ~post_restore:false req);
  let dirty = As.dirty_pages p.Gh_proc.Process.mem in
  (* The write plan covers ~64 pages (minus the skipped 1/16) plus churn. *)
  check_bool "dirtied about the quota" true (dirty >= 40 && dirty <= 120);
  check_bool "execution charged" true
    (Account.total a >= small_spec.Function_model.exec_ns)

let test_model_layout_steady_state_without_restore () =
  let inst, rng = build_warm () in
  let p = Function_model.proc inst in
  let count0 = As.vma_count p.Gh_proc.Process.mem in
  for i = 1 to 10 do
    let req = Request.make ~id:i ~principal:alice () in
    ignore (Function_model.invoke inst (acct ()) rng ~post_restore:false req)
  done;
  let count10 = As.vma_count p.Gh_proc.Process.mem in
  (* Per-invocation maps are reclaimed next invocation: no unbounded growth. *)
  check_bool "vma count bounded" true (abs (count10 - count0) <= 4)

let test_model_residue_and_oracle () =
  (* The buggy function must read widely enough to stumble on the previous
     request's surviving pages. *)
  let spec =
    { small_spec with Function_model.buggy_residue_leak = true; read_pages = 2_000 }
  in
  let inst, rng = build_warm ~spec () in
  let r1 = Request.make ~id:1 ~principal:alice () in
  let resp1 = Function_model.invoke inst (acct ()) rng ~post_restore:false r1 in
  check_int "first caller sees no residue" 0 (List.length resp1.Function_model.residue);
  check_bool "oracle sees alice's residue" true (Function_model.residue_oracle inst bob > 0);
  let r2 = Request.make ~id:2 ~principal:bob () in
  let resp2 = Function_model.invoke inst (acct ()) rng ~post_restore:false r2 in
  check_bool "bob's buggy run observes alice's data" true
    (List.exists (Principal.owns_word alice) resp2.Function_model.residue)

let test_model_memleak_slowdown () =
  let spec =
    {
      small_spec with
      Function_model.memleak_pages = 50;
      leak_slowdown_ns = 10_000;
      exec_ns = Gh_sim.Time_ns.of_ms 1.0;
    }
  in
  let inst, rng = build_warm ~spec () in
  let cost_of i =
    let a = acct () in
    ignore
      (Function_model.invoke inst a rng ~post_restore:false
         (Request.make ~id:i ~principal:alice ()));
    Account.total a
  in
  let first = cost_of 1 in
  for i = 2 to 9 do
    ignore (cost_of i)
  done;
  let tenth = cost_of 10 in
  check_bool "leak slows the function down" true (tenth > first + 3_000_000)

let test_model_invoke_on_child_isolates_parent () =
  let inst, rng = build_warm () in
  let p = Function_model.proc inst in
  let present_before = As.present_pages p.Gh_proc.Process.mem in
  let heap_word = As.peek (As.heap p.Gh_proc.Process.mem) 0 in
  let child = Gh_proc.Process.fork p (acct ()) in
  let req = Request.make ~id:3 ~principal:bob () in
  ignore (Function_model.invoke_on inst child (acct ()) rng ~post_restore:false req);
  check_int "parent pages untouched" present_before (As.present_pages p.Gh_proc.Process.mem);
  check_int "parent data untouched" heap_word (As.peek (As.heap p.Gh_proc.Process.mem) 0);
  check_int "parent has no foreign residue" 0 (Function_model.residue_oracle inst alice)

let test_model_warmup_pages_in_plans () =
  let inst = Function_model.build small_spec in
  let p = Function_model.proc inst in
  let before = As.present_pages p.Gh_proc.Process.mem in
  ignore (Function_model.warmup inst (acct ()) (Rng.create 4));
  check_bool "warm-up paged memory in" true (As.present_pages p.Gh_proc.Process.mem > before)

let test_model_service_calls_and_acl () =
  let spec = { small_spec with Function_model.service_ops = 4 } in
  let inst = Function_model.build spec in
  let rng = Rng.create 5 in
  ignore (Function_model.warmup inst (acct ()) rng);
  Function_model.mark_clean inst;
  let services = Services.create () in
  Function_model.attach_services inst services;
  (* The tenant granted alice but forgot bob. *)
  Services.grant services alice ~key:("fn/" ^ string_of_int alice.Principal.id);
  let a = acct () in
  let resp =
    Function_model.invoke inst a rng ~post_restore:false
      (Request.make ~id:1 ~principal:alice ())
  in
  check_int "alice's calls all succeed" 0 resp.Function_model.service_denials;
  check_bool "service round trips charged" true
    (Account.total a > spec.Function_model.exec_ns + (4 * 200_000));
  let resp =
    Function_model.invoke inst (acct ()) rng ~post_restore:false
      (Request.make ~id:2 ~principal:bob ())
  in
  check_int "bob's calls all denied" 4 resp.Function_model.service_denials;
  (* Without attached services, nothing happens. *)
  let inst2 = Function_model.build spec in
  ignore (Function_model.warmup inst2 (acct ()) rng);
  let resp =
    Function_model.invoke inst2 (acct ()) rng ~post_restore:false
      (Request.make ~id:3 ~principal:bob ())
  in
  check_int "no services, no denials" 0 resp.Function_model.service_denials

(* -- Actionloop interposition -- *)

let test_actionloop_buffering_invariant () =
  let rt = Runtime.for_lang Runtime.Python in
  let loop = Actionloop.create rt in
  let a = acct () in
  let r1 = Request.make ~id:1 ~principal:alice ~input_kb:8 () in
  let r2 = Request.make ~id:2 ~principal:bob ~input_kb:8 () in
  (* Clean process: immediate delivery, charged. *)
  (match Actionloop.offer loop a ~clean:true r1 with
  | `Delivered -> ()
  | `Buffered -> Alcotest.fail "clean process must receive input");
  check_int "copy charged" (Actionloop.copy_cost_ns rt ~kb:8) (Account.total a);
  (* Dirty process: input held back. *)
  (match Actionloop.offer loop a ~clean:false r2 with
  | `Buffered -> ()
  | `Delivered -> Alcotest.fail "dirty process must not receive input");
  check_int "buffered" 1 (Actionloop.buffered loop);
  (* Still dirty: drain yields nothing. *)
  check_int "held while dirty" 0 (List.length (Actionloop.drain loop a ~clean:false));
  check_int "still buffered" 1 (Actionloop.buffered loop);
  (* Restored: buffered input flows. *)
  (match Actionloop.drain loop a ~clean:true with
  | [ r ] -> check_int "the held request" 2 r.Request.id
  | _ -> Alcotest.fail "one drained input expected");
  check_int "nothing delivered while dirty" 0 (Actionloop.delivered_while_dirty loop);
  check_int "two delivered total" 2 (Actionloop.delivered loop)

let test_actionloop_fifo_order () =
  let rt = Runtime.for_lang Runtime.C in
  let loop = Actionloop.create rt in
  let a = acct () in
  for i = 1 to 3 do
    ignore (Actionloop.offer loop a ~clean:false (Request.make ~id:i ~principal:alice ()))
  done;
  let ids = List.map (fun r -> r.Request.id) (Actionloop.drain loop a ~clean:true) in
  Alcotest.(check (list int)) "FIFO" [ 1; 2; 3 ] ids

let test_gh_strategy_actionloop_invariant () =
  let spec = { small_spec with Function_model.buggy_residue_leak = false } in
  let _, state = Gh_isolation.Gh.make_with_state ~rng:(Rng.create 8) spec in
  let strategy, state2 = Gh_isolation.Gh.make_with_state ~rng:(Rng.create 9) spec in
  ignore state;
  for i = 1 to 5 do
    ignore (strategy.Strategy_intf.invoke (Request.make ~id:i ~principal:alice ()))
  done;
  let loop = Gh_isolation.Gh.actionloop state2 in
  check_int "all inputs went through the loop" 5 (Actionloop.delivered loop);
  check_int "never to a dirty process" 0 (Actionloop.delivered_while_dirty loop)

(* -- Platform DES -- *)

let strategy_of_constant ~exec_ns ~post_ns =
  let count = ref 0 in
  {
    Strategy_intf.name = "const";
    init_ns = 0;
    invoke =
      (fun req ->
        incr count;
        Strategy_intf.invocation ~on_path_ns:exec_ns ~post_ns ~isolated:(post_ns > 0)
          ~outcome:Strategy_intf.Completed
          { Function_model.value = req.Request.id; residue = []; output_kb = 1;
            service_denials = 0; crashed = false; hung = false });
    snapshot_pages = (fun () -> 0);
    status = Strategy_intf.no_status;
    kill = Strategy_intf.no_kill;
    degrade = Strategy_intf.no_degrade;
    scrub = Strategy_intf.no_scrub;
    audit = Strategy_intf.no_audit;
    describe = (fun () -> "constant-latency test strategy");
  }

let test_container_state_machine () =
  let engine = Engine.create () in
  let c = Container.create engine ~id:0 (strategy_of_constant ~exec_ns:100 ~post_ns:50) in
  check_bool "idle" true (Container.is_idle c);
  let responded = ref (-1) in
  Container.submit c (Request.make ~id:1 ~principal:alice ()) ~on_response:(fun _ _ ->
      responded := Engine.now engine);
  check_bool "busy now" false (Container.is_idle c);
  (try
     Container.submit c (Request.make ~id:2 ~principal:alice ()) ~on_response:(fun _ _ -> ());
     Alcotest.fail "busy container must reject"
   with Invalid_argument _ -> ());
  Engine.run_all engine;
  check_int "response at exec end" 100 !responded;
  check_bool "idle after post work" true (Container.is_idle c);
  check_int "went idle at exec+post" 150 (Engine.now engine);
  check_int "completed" 1 (Container.completed c)

let test_invoker_queueing () =
  let engine = Engine.create () in
  let invoker =
    Invoker.create engine ~n_containers:2 ~dispatch_ns:0 ~make_strategy:(fun _ ->
        strategy_of_constant ~exec_ns:100 ~post_ns:0)
  in
  let done_count = ref 0 in
  for i = 1 to 5 do
    Invoker.submit invoker (Request.make ~id:i ~principal:alice ()) ~on_response:(fun _ _ ->
        incr done_count)
  done;
  check_bool "queue formed" true (Invoker.queue_length invoker > 0);
  Engine.run_all engine;
  check_int "all done" 5 !done_count;
  check_int "completed counted" 5
    (Array.fold_left (fun n c -> n + Container.completed c) 0 (Invoker.containers invoker));
  (* 5 requests, 2 containers, 100ns each: 3 rounds. *)
  check_int "makespan" 300 (Engine.now engine)

let test_controller_adds_platform_overhead () =
  let engine = Engine.create () in
  let invoker =
    Invoker.create engine ~n_containers:1 ~dispatch_ns:0 ~make_strategy:(fun _ ->
        strategy_of_constant ~exec_ns:1_000_000 ~post_ns:0)
  in
  let controller = Controller.create engine ~rng:(Rng.create 7) (Invoker.submit invoker) in
  let seen = ref None in
  Controller.submit controller (Request.make ~id:1 ~principal:alice ()) ~on_complete:(fun c ->
      seen := Some c);
  Engine.run_all engine;
  match !seen with
  | None -> Alcotest.fail "no completion"
  | Some c ->
      check_int "invoker latency is on-path" 1_000_000 c.Controller.invoker_ns;
      check_bool "e2e exceeds invoker by platform overhead" true
        (c.Controller.e2e_ns > c.Controller.invoker_ns + Gh_sim.Time_ns.of_ms 10.0)

let test_clients () =
  let run_client f =
    let engine = Engine.create () in
    let invoker =
      Invoker.create engine ~n_containers:2 ~dispatch_ns:1000 ~make_strategy:(fun _ ->
          strategy_of_constant ~exec_ns:2_000_000 ~post_ns:500_000)
    in
    let controller = Controller.create engine ~rng:(Rng.create 9) (Invoker.submit invoker) in
    f engine controller
  in
  let r =
    run_client (fun engine controller ->
        Client.closed_loop engine controller ~n_requests:10 ~think_ns:1_000_000
          ~principals:[| alice; bob |] ~input_kb:4)
  in
  check_int "closed loop completes all" 10 r.Client.completed;
  check_int "latencies recorded" 10 (Array.length r.Client.e2e_ms);
  let r =
    run_client (fun engine controller ->
        Client.saturate engine controller ~n_requests:30 ~window:8 ~principals:[| alice |]
          ~input_kb:4)
  in
  check_bool "saturate completes (steady-state count)" true (r.Client.completed >= 29);
  check_bool "throughput positive" true (Client.throughput_rps r > 0.0)

let test_container_tracing () =
  let engine = Engine.create () in
  let trace = Gh_sim.Trace.create () in
  let c =
    Container.create
      ~obs:{ Gh_sim.Obs.none with trace = Some trace }
      engine ~id:0 (strategy_of_constant ~exec_ns:100 ~post_ns:50)
  in
  Container.submit c (Request.make ~id:1 ~principal:alice ()) ~on_response:(fun _ _ -> ());
  Engine.run_all engine;
  let events = Gh_sim.Trace.events trace in
  let whats = List.map (fun (e : Gh_sim.Trace.event) -> e.Gh_sim.Trace.what) events in
  Alcotest.(check (list string))
    "serve -> respond -> restore -> idle"
    [ "serve"; "respond"; "restore"; "idle" ]
    whats;
  (* Timestamps are the simulated instants. *)
  let at = List.map (fun (e : Gh_sim.Trace.event) -> e.Gh_sim.Trace.at) events in
  Alcotest.(check (list int)) "timestamps" [ 0; 100; 100; 150 ] at

let test_openwhisk_deploy () =
  let d =
    Openwhisk.deploy
      { Openwhisk.default_config with Openwhisk.n_cores = 3 }
      ~make_strategy:(fun _ -> strategy_of_constant ~exec_ns:1000 ~post_ns:0)
  in
  check_int "three containers" 3 (Array.length (Invoker.containers d.Openwhisk.invoker))

(* The function model end to end, pinned: [Fm_digest] runs 100 synthetic
   specs through requests on the instance, on fork children and under an
   incremental snapshot's salvage hook, and must reproduce, spec by spec,
   the digests in fm_golden.txt (taken from the per-chunk page-access
   implementation the compiled plans replaced). *)
let test_model_golden () =
  let golden =
    (* From dune's test directory, or [dune exec] at the repo root. *)
    let path = if Sys.file_exists "fm_golden.txt" then "fm_golden.txt" else "test/fm_golden.txt" in
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  check_int "golden entries" Fm_digest.n_specs (List.length golden);
  List.iteri
    (fun k d ->
      Alcotest.(check string) (Printf.sprintf "spec %d" k) (List.nth golden k)
        (Printf.sprintf "%d %s" k d))
    (Fm_digest.all ())

(* -- Configuration is rejected with a named reason -- *)

(* One row per configuration check in the platform: each builds one bad
   value and hands it to its constructor, which must raise
   [Invalid_argument] with exactly this text before doing any work. *)
let test_config_rejected () =
  let engine = Engine.create () in
  let sink _ ~on_response:_ = () in
  let controller = Controller.create engine ~rng:(Rng.create 1) sink in
  let never_built _ = Alcotest.fail "no strategy may be built" in
  let brownout =
    {
      Brownout.target_delay_ns = 1_000;
      escalate_after = 1;
      recover_after = 1;
      hysteresis = 0.5;
      shed_below_priority = 1;
    }
  in
  let health = Health.default_config in
  let cluster =
    {
      Cluster.n_nodes = 1;
      node = Node.default_config;
      placement = Cluster.Round_robin;
      failover = true;
      hb_interval = 1_000;
      hang_ns = 1_000;
      response_timeout = 1_000;
      max_attempts = 1;
      hedge_after = None;
      restart_ns = 1_000;
      health;
      breaker = Breaker.default_config;
    }
  in
  let saturate ~window principals =
    Client.saturate engine controller ~n_requests:1 ~window ~principals ~input_kb:1
  in
  List.iter
    (fun (msg, build) -> Alcotest.check_raises msg (Invalid_argument msg) (fun () -> build ()))
    [
      ( "Controller.create: ttl_ns must be positive",
        fun () -> ignore (Controller.create ~ttl_ns:0 engine ~rng:(Rng.create 1) sink) );
      ("Admission.bounded: capacity must be positive", fun () -> ignore (Admission.bounded 0));
      ( "Brownout: target_delay_ns must be positive",
        fun () -> ignore (Brownout.create { brownout with target_delay_ns = 0 }) );
      ( "Brownout: escalate_after/recover_after must be positive",
        fun () -> ignore (Brownout.create { brownout with recover_after = 0 }) );
      ( "Brownout: hysteresis must be in (0, 1]",
        fun () -> ignore (Brownout.create { brownout with hysteresis = 1.5 }) );
      ( "Health.create: need 1 <= suspect_after < quarantine_after",
        fun () ->
          ignore
            (Health.create { health with suspect_after = health.Health.quarantine_after }) );
      ( "Health.create: rejoin_after must be >= 1",
        fun () -> ignore (Health.create { health with rejoin_after = 0 }) );
      ( "Breaker.create: failure_threshold must be >= 1",
        fun () ->
          ignore (Breaker.create { Breaker.default_config with failure_threshold = 0 }) );
      ( "Cluster.create: n_nodes must be >= 1",
        fun () ->
          ignore
            (Cluster.create engine { cluster with n_nodes = 0 } ~make_strategy:never_built) );
      ( "Cluster.create: max_attempts must be >= 1",
        fun () ->
          ignore
            (Cluster.create engine { cluster with max_attempts = 0 } ~make_strategy:never_built)
      );
      ( "Invoker.create: need at least one container",
        fun () ->
          ignore
            (Invoker.create engine ~n_containers:0 ~dispatch_ns:0 ~make_strategy:never_built) );
      ( "Client.closed_loop: no principals",
        fun () ->
          ignore
            (Client.closed_loop engine controller ~n_requests:1 ~think_ns:0 ~principals:[||]
               ~input_kb:1) );
      ( "Client.open_loop: no principals",
        fun () ->
          ignore
            (Client.open_loop engine controller ~rng:(Rng.create 2) ~rate_rps:1.0 ~n_requests:1
               ~principals:[||] ~input_kb:1) );
      ("Client.saturate: no principals", fun () -> ignore (saturate ~window:1 [||]));
      ("Client.saturate: empty window", fun () -> ignore (saturate ~window:0 [| alice |]));
      ( "Principal.make: id out of range",
        fun () -> ignore (Principal.make ~id:0x10000 ~name:"x") );
      ( "Principal.with_priority: negative priority",
        fun () -> ignore (Principal.with_priority alice (-1)) );
      ( "Backoff.make: need 0 <= base <= cap",
        fun () -> ignore (Backoff.make ~base_ns:(-1) ()) );
      ("Backoff.make: multiplier < 1", fun () -> ignore (Backoff.make ~multiplier:0.5 ()));
      ("Backoff.make: jitter outside [0,1)", fun () -> ignore (Backoff.make ~jitter:1.0 ()));
    ]

let () =
  Alcotest.run "gh_faas"
    [
      ( "identity",
        [
          Alcotest.test_case "secret tagging" `Quick test_secret_tagging;
          Alcotest.test_case "request defaults" `Quick test_request_defaults;
        ] );
      ("services", [ Alcotest.test_case "ACL" `Quick test_services_acl ]);
      ("runtime", [ Alcotest.test_case "per-language properties" `Quick test_runtime_properties ]);
      ( "function-model",
        [
          Alcotest.test_case "dirties expected pages" `Quick test_model_dirties_expected_pages;
          Alcotest.test_case "layout steady state" `Quick
            test_model_layout_steady_state_without_restore;
          Alcotest.test_case "residue and oracle" `Quick test_model_residue_and_oracle;
          Alcotest.test_case "memleak slowdown" `Quick test_model_memleak_slowdown;
          Alcotest.test_case "fork child isolates parent" `Quick
            test_model_invoke_on_child_isolates_parent;
          Alcotest.test_case "warmup pages in" `Quick test_model_warmup_pages_in_plans;
          Alcotest.test_case "service calls and ACL" `Quick test_model_service_calls_and_acl;
          Alcotest.test_case "digests match the golden" `Quick test_model_golden;
        ] );
      ( "actionloop",
        [
          Alcotest.test_case "buffering invariant" `Quick test_actionloop_buffering_invariant;
          Alcotest.test_case "FIFO order" `Quick test_actionloop_fifo_order;
          Alcotest.test_case "GH strategy upholds it" `Quick
            test_gh_strategy_actionloop_invariant;
        ] );
      ( "platform",
        [
          Alcotest.test_case "container state machine" `Quick test_container_state_machine;
          Alcotest.test_case "invoker queueing" `Quick test_invoker_queueing;
          Alcotest.test_case "controller overhead" `Quick test_controller_adds_platform_overhead;
          Alcotest.test_case "clients" `Quick test_clients;
          Alcotest.test_case "container tracing" `Quick test_container_tracing;
          Alcotest.test_case "openwhisk deploy" `Quick test_openwhisk_deploy;
        ] );
      ( "configuration",
        [ Alcotest.test_case "rejected with a named reason" `Quick test_config_rejected ] );
    ]
