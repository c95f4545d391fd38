(* The fault-injection substrate and the fail-closed recovery pipeline:
   plan determinism, the none sentinel, and the kill -> cold-restart ->
   re-snapshot path with timeouts, backoff and quarantine.

   GH_FAULT_SEED (an integer) narrows the determinism tests to one seed;
   ci/check.sh sweeps it over three fixed values. *)

module Fault = Gh_sim.Fault
module Engine = Gh_sim.Engine
module Time_ns = Gh_sim.Time_ns
module Rng = Gh_sim.Rng
module Fm = Gh_faas.Function_model
module Intf = Gh_faas.Strategy_intf
module Invoker = Gh_faas.Invoker
module Container = Gh_faas.Container
module Backoff = Gh_faas.Backoff
module Request = Gh_faas.Request
module Registry = Gh_isolation.Registry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let alice = Gh_faas.Principal.make ~id:1 ~name:"alice"

let seeds =
  match Sys.getenv_opt "GH_FAULT_SEED" with
  | Some s -> [ int_of_string s ]
  | None -> [ 1; 42; 1337 ]

(* -- Fault plans -- *)

let schedule ~seed ~prob site n =
  let t = Fault.uniform ~seed ~prob [ site ] in
  List.init n (fun _ -> Fault.fire t site)

let test_same_seed_same_schedule () =
  List.iter
    (fun seed ->
      let a = schedule ~seed ~prob:0.3 Fault.Snapshot_copy 500 in
      let b = schedule ~seed ~prob:0.3 Fault.Snapshot_copy 500 in
      check_bool "identical schedule" true (a = b);
      check_bool "some fired" true (List.mem true a);
      check_bool "some spared" true (List.mem false a))
    seeds

let test_sites_independent () =
  List.iter
    (fun seed ->
      (* One site's schedule must not move when another site also draws:
         each site has its own stream. *)
      let alone = schedule ~seed ~prob:0.3 Fault.Ptrace_regs 200 in
      let t = Fault.uniform ~seed ~prob:0.3 [ Fault.Ptrace_regs; Fault.Fn_crash ] in
      let interleaved =
        List.init 200 (fun _ ->
            ignore (Fault.fire t Fault.Fn_crash);
            Fault.fire t Fault.Ptrace_regs)
      in
      check_bool "other sites don't perturb the stream" true (alone = interleaved))
    seeds

let test_nth_occurrence () =
  let t = Fault.create ~seed:9 in
  Fault.set t Fault.Procfs_maps ~nth:[ 3; 5 ] ();
  let fires = List.init 8 (fun _ -> Fault.fire t Fault.Procfs_maps) in
  check_bool "fires exactly at occurrences 3 and 5" true
    (fires = [ false; false; true; false; true; false; false; false ]);
  check_int "occurrences counted" 8 (Fault.occurrences t Fault.Procfs_maps);
  check_int "fired counted" 2 (Fault.fired t Fault.Procfs_maps);
  check_int "total fired" 2 (Fault.total_fired t)

let test_none_sentinel () =
  check_bool "is_none none" true (Fault.is_none Fault.none);
  check_bool "plans are not none" false (Fault.is_none (Fault.create ~seed:1));
  check_bool "never fires" false (Fault.fire Fault.none Fault.Fn_crash);
  check_int "no occurrence recorded" 0 (Fault.occurrences Fault.none Fault.Fn_crash);
  try
    Fault.set Fault.none Fault.Fn_crash ~prob:0.5 ();
    Alcotest.fail "set on none must raise"
  with Invalid_argument _ -> ()

let test_prob_validation () =
  let t = Fault.create ~seed:1 in
  (try
     Fault.set t Fault.Fn_crash ~prob:1.5 ();
     Alcotest.fail "prob > 1 must raise"
   with Invalid_argument _ -> ());
  (try
     Fault.set t Fault.Fn_crash ~prob:(-0.1) ();
     Alcotest.fail "negative prob must raise"
   with Invalid_argument _ -> ());
  let always = Fault.uniform ~seed:2 ~prob:1.0 [ Fault.Fn_crash ] in
  check_bool "prob 1 always fires" true
    (List.for_all Fun.id (List.init 20 (fun _ -> Fault.fire always Fault.Fn_crash)));
  let never = Fault.uniform ~seed:2 ~prob:0.0 [ Fault.Fn_crash ] in
  check_bool "prob 0 never fires" true
    (List.for_all not (List.init 20 (fun _ -> Fault.fire never Fault.Fn_crash)))

(* -- Cluster-level sites: same plan semantics as the process-level ones -- *)

let test_cluster_sites_listed () =
  check_int "four node-level sites" 4 (List.length Fault.cluster_sites);
  List.iter
    (fun site ->
      check_bool "cluster sites are in all_sites" true (List.mem site Fault.all_sites))
    Fault.cluster_sites;
  check_bool "distinct site names" true
    (let names = List.map Fault.site_name Fault.cluster_sites in
     List.sort_uniq compare names = List.sort compare names)

let test_cluster_sites_prob_and_nth () =
  List.iter
    (fun seed ->
      List.iter
        (fun site ->
          (* Probability rule: deterministic per seed, independent stream. *)
          let a = schedule ~seed ~prob:0.3 site 300 in
          let b = schedule ~seed ~prob:0.3 site 300 in
          check_bool "identical schedule" true (a = b);
          check_bool "some fired" true (List.mem true a);
          check_bool "some spared" true (List.mem false a);
          (* nth rule: fires exactly at the listed occurrences. *)
          let t = Fault.create ~seed in
          Fault.set t site ~nth:[ 2; 7 ] ();
          let fires = List.init 9 (fun _ -> Fault.fire t site) in
          check_bool "nth occurrences fire" true
            (fires = [ false; true; false; false; false; false; true; false; false ]);
          check_int "occurrences counted" 9 (Fault.occurrences t site);
          check_int "fired counted" 2 (Fault.fired t site))
        Fault.cluster_sites)
    seeds

let test_cluster_sites_independent () =
  List.iter
    (fun seed ->
      (* A crash draw must not move the hang stream, and vice versa. *)
      let alone = schedule ~seed ~prob:0.25 Fault.Node_crash 200 in
      let t = Fault.uniform ~seed ~prob:0.25 [ Fault.Node_crash; Fault.Node_hang ] in
      let interleaved =
        List.init 200 (fun _ ->
            ignore (Fault.fire t Fault.Node_hang);
            Fault.fire t Fault.Node_crash)
      in
      check_bool "sites keep independent streams" true (alone = interleaved))
    seeds

let test_cluster_sites_none_sentinel () =
  List.iter
    (fun site ->
      check_bool "none never fires a cluster site" false (Fault.fire Fault.none site);
      check_int "none records no occurrence" 0 (Fault.occurrences Fault.none site))
    Fault.cluster_sites;
  check_bool "none still the physical sentinel" true (Fault.is_none Fault.none)

(* -- The recovery pipeline, driven by scripted strategies -- *)

let resp ?(hung = false) id =
  { Fm.value = id; residue = []; output_kb = 1; crashed = false; hung }

(* [next req] decides each invocation's behaviour. *)
let scripted name next =
  Intf.stateless ~name ~init_ns:(Time_ns.of_ms 10.0) (fun req ->
      match next req with
      | `Ok ->
          Intf.invocation ~on_path_ns:(Time_ns.of_ms 1.0) ~outcome:Intf.Completed
            (resp req.Request.id)
      | `Hang ->
          Intf.invocation ~on_path_ns:0 ~outcome:Intf.Hung (resp ~hung:true req.Request.id)
      | `Poison ->
          Intf.invocation ~on_path_ns:(Time_ns.of_ms 1.0) ~post_ns:(Time_ns.of_ms 2.0)
            ~outcome:Intf.Poisoned (resp req.Request.id))

let from_plan plan _req =
  match !plan with
  | [] -> `Ok
  | b :: rest ->
      plan := rest;
      b

let recovery ?(timeout_ms = 50.0) ?(quarantine_after = 3) ?(max_attempts = 3) () =
  {
    Invoker.container =
      {
        Container.timeout_ns = Some (Time_ns.of_ms timeout_ms);
        quarantine_after;
        rebuild_backoff = Backoff.default;
        max_rebuild_attempts = 5;
      };
    max_attempts;
    retry_backoff = Backoff.default;
  }

let test_hang_timeout_retry () =
  let engine = Engine.create () in
  let plan = ref [ `Hang ] in
  let invoker =
    Invoker.create ~recovery:(recovery ()) engine ~n_containers:1 ~dispatch_ns:0
      ~make_strategy:(fun _ -> scripted "flaky" (from_plan plan))
  in
  let responses = ref 0 in
  Invoker.submit invoker
    (Request.make ~id:1 ~principal:alice ())
    ~on_response:(fun _ inv ->
      incr responses;
      check_bool "retry completed" true (inv.Intf.outcome = Intf.Completed));
  Engine.run_all engine;
  let rs = Invoker.recovery_stats invoker in
  check_int "one timeout" 1 rs.Invoker.timeouts;
  check_int "one retry" 1 rs.Invoker.retries;
  check_int "request delivered in the end" 1 !responses;
  check_int "nothing abandoned" 0 rs.Invoker.failed_requests;
  check_int "container cold-restarted" 1 rs.Invoker.replacements;
  check_bool "MTTR sampled" true (List.length rs.Invoker.mttr_ns >= 1);
  check_bool "MTTR finite and positive" true
    (List.for_all (fun ns -> ns > 0) rs.Invoker.mttr_ns)

let test_poisoned_restore_cold_restart () =
  let engine = Engine.create () in
  let plan = ref [ `Poison ] in
  let invoker =
    Invoker.create ~recovery:(recovery ()) engine ~n_containers:1 ~dispatch_ns:0
      ~make_strategy:(fun _ -> scripted "poisoner" (from_plan plan))
  in
  let outcomes = ref [] in
  for i = 1 to 3 do
    Invoker.submit invoker
      (Request.make ~id:i ~principal:alice ())
      ~on_response:(fun _ inv -> outcomes := inv.Intf.outcome :: !outcomes)
  done;
  Engine.run_all engine;
  let rs = Invoker.recovery_stats invoker in
  check_bool "first poisoned, rest clean" true
    (List.rev !outcomes = [ Intf.Poisoned; Intf.Completed; Intf.Completed ]);
  check_int "one replacement" 1 rs.Invoker.replacements;
  check_int "no timeouts" 0 rs.Invoker.timeouts;
  check_int "nothing abandoned" 0 rs.Invoker.failed_requests;
  check_bool "container healthy again" true
    (Container.is_idle (Invoker.containers invoker).(0))

let test_quarantine_and_abandon () =
  let engine = Engine.create () in
  let invoker =
    Invoker.create
      ~recovery:(recovery ~quarantine_after:2 ~max_attempts:2 ())
      engine ~n_containers:1 ~dispatch_ns:0
      ~make_strategy:(fun _ -> scripted "wedged" (fun _ -> `Hang))
  in
  let abandoned = ref [] in
  Invoker.set_on_failed invoker (fun req -> abandoned := req.Request.id :: !abandoned);
  let responses = ref 0 in
  Invoker.submit invoker
    (Request.make ~id:7 ~principal:alice ())
    ~on_response:(fun _ _ -> incr responses);
  Engine.run_all engine;
  let rs = Invoker.recovery_stats invoker in
  check_int "no response ever" 0 !responses;
  check_int "abandoned after the retry budget" 1 rs.Invoker.failed_requests;
  check_bool "on_failed saw the request" true (!abandoned = [ 7 ]);
  check_int "container quarantined" 1 rs.Invoker.quarantined;
  check_bool "retired for good" true
    (Container.is_quarantined (Invoker.containers invoker).(0));
  check_int "bounded kills: one per attempt" 2 rs.Invoker.timeouts

let test_rebuild_backoff_bounded () =
  (* A rebuild path that always fails must quarantine after
     max_rebuild_attempts — never a hot loop. *)
  let engine = Engine.create () in
  let built = ref 0 in
  let plan = ref [ `Hang ] in
  let make_strategy _ =
    incr built;
    if !built = 1 then scripted "first" (from_plan plan)
    else failwith "rebuild always fails"
  in
  let invoker =
    Invoker.create ~recovery:(recovery ()) engine ~n_containers:1 ~dispatch_ns:0 ~make_strategy
  in
  Invoker.submit invoker (Request.make ~id:1 ~principal:alice ()) ~on_response:(fun _ _ -> ());
  Engine.run_all engine;
  let rs = Invoker.recovery_stats invoker in
  (* 1 initial build + max_rebuild_attempts failed rebuilds. *)
  check_int "bounded rebuild attempts" 6 !built;
  check_int "then quarantined" 1 rs.Invoker.quarantined;
  check_int "never replaced" 0 rs.Invoker.replacements;
  check_bool "simulation terminated" true (Engine.now engine > 0)

(* -- Fail-closed property (QCheck): under arbitrary uniform fault plans,
   no request is ever dispatched to a non-clean Groundhog manager, and
   every poisoned container ends up replaced (Idle) or quarantined. -- *)

let spec = { Fm.default_spec with Fm.name = "prop-fn" }

let fail_closed_run (seed, prob) =
  let engine = Engine.create () in
  let unsafe = ref 0 in
  let guard (s : Intf.t) =
    {
      s with
      Intf.invoke =
        (fun req ->
          (match s.Intf.status () with
          | Some `Clean | None -> ()
          | Some _ -> incr unsafe);
          s.Intf.invoke req);
    }
  in
  let root = Rng.create seed in
  let builds = Array.make 2 0 in
  let make_strategy i =
    let b = builds.(i) in
    builds.(i) <- b + 1;
    let attempt a =
      Registry.make Registry.Gh
        ~fault:(Fault.uniform ~seed:(Hashtbl.hash (seed, i, b, a)) ~prob Fault.all_sites)
        ~rng:(Rng.named_split root (Printf.sprintf "%d.%d.%d" i b a))
        spec
    in
    if b = 0 then begin
      (* Deploy-time builds retry deterministically until one sticks. *)
      let rec go a =
        match attempt a with
        | Ok s -> guard s
        | Error _ when a < 50 -> go (a + 1)
        | Error msg -> failwith msg
      in
      go 0
    end
    else match attempt 0 with Ok s -> guard s | Error msg -> failwith msg
  in
  let timeout_ms = Time_ns.to_ms (Time_ns.of_sec 1.0 + (8 * spec.Fm.exec_ns)) in
  let invoker =
    Invoker.create
      ~recovery:(recovery ~timeout_ms ())
      engine ~n_containers:2 ~dispatch_ns:0 ~make_strategy
  in
  for i = 1 to 25 do
    Engine.at engine
      ~time:(i * Time_ns.of_ms 5.0)
      (fun () ->
        Invoker.submit invoker
          (Request.make ~id:i ~principal:alice ())
          ~on_response:(fun _ _ -> ()))
  done;
  Engine.run_all engine;
  (!unsafe, Invoker.containers invoker)

let fail_closed_prop =
  QCheck2.Test.make ~name:"faults never reach a request into a non-clean process" ~count:25
    QCheck2.Gen.(pair (int_bound 100_000) (oneofl [ 0.0; 0.001; 0.01; 0.05 ]))
    (fun case ->
      let unsafe, containers = fail_closed_run case in
      let settled c =
        match Container.state c with
        | Container.Idle | Container.Quarantined -> true
        | Container.Busy | Container.Restoring | Container.Replacing -> false
      in
      if unsafe > 0 then
        QCheck2.Test.fail_reportf "%d request(s) dispatched to a non-clean manager" unsafe
      else if not (Array.for_all settled containers) then
        QCheck2.Test.fail_reportf
          "a container never settled: every poisoned container must end Idle (replaced) or \
           Quarantined"
      else true)

let fail_closed_deterministic () =
  (* The whole pipeline, faults included, replays bit-identically. *)
  List.iter
    (fun seed ->
      let u1, c1 = fail_closed_run (seed, 0.01) in
      let u2, c2 = fail_closed_run (seed, 0.01) in
      check_int "unsafe count replays" u1 u2;
      Array.iteri
        (fun i c ->
          check_bool "state replays" true (Container.state c = Container.state c2.(i));
          check_int "completions replay" (Container.completed c) (Container.completed c2.(i));
          check_int "replacements replay" (Container.replacements c)
            (Container.replacements c2.(i)))
        c1)
    seeds

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "same seed, same schedule" `Quick test_same_seed_same_schedule;
          Alcotest.test_case "sites independent" `Quick test_sites_independent;
          Alcotest.test_case "nth occurrence" `Quick test_nth_occurrence;
          Alcotest.test_case "none sentinel" `Quick test_none_sentinel;
          Alcotest.test_case "prob validation" `Quick test_prob_validation;
        ] );
      ( "cluster-sites",
        [
          Alcotest.test_case "listed and distinct" `Quick test_cluster_sites_listed;
          Alcotest.test_case "prob and nth rules" `Quick test_cluster_sites_prob_and_nth;
          Alcotest.test_case "independent streams" `Quick test_cluster_sites_independent;
          Alcotest.test_case "none sentinel" `Quick test_cluster_sites_none_sentinel;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "hang, timeout, retry" `Quick test_hang_timeout_retry;
          Alcotest.test_case "poisoned restore cold-restarts" `Quick
            test_poisoned_restore_cold_restart;
          Alcotest.test_case "quarantine and abandon" `Quick test_quarantine_and_abandon;
          Alcotest.test_case "rebuild backoff bounded" `Quick test_rebuild_backoff_bounded;
          Alcotest.test_case "deterministic replay" `Quick fail_closed_deterministic;
        ] );
      ( "fail-closed",
        [ QCheck_alcotest.to_alcotest ~verbose:false fail_closed_prop ] );
    ]
