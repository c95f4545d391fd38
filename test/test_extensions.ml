(* Tests for the extension features beyond the paper's measured
   configurations: the CRIU-style baseline, open-loop load generation,
   container cold starts, and the ablation/extension experiments. *)

module Fm = Gh_faas.Function_model
module Intf = Gh_faas.Strategy_intf
module Request = Gh_faas.Request
module Principal = Gh_faas.Principal
module Registry = Gh_isolation.Registry
module Engine = Gh_sim.Engine
module Rng = Gh_sim.Rng
module Time_ns = Gh_sim.Time_ns
open Gh_harness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let alice = Principal.make ~id:1 ~name:"alice"
let bob = Principal.make ~id:2 ~name:"bob"

let cfg =
  {
    Config.quick with
    Config.latency_requests = 8;
    latency_requests_medium = 4;
    latency_requests_long = 2;
    tput_requests = 10;
    microbench_requests = 4;
    breakdown_requests = 3;
  }

let small_spec =
  {
    Fm.default_spec with
    Fm.name = "ext";
    mapped_pages = 2_000;
    dirtied_pages = 64;
    read_pages = 2_000;
    buggy_residue_leak = true;
  }

(* -- CRIU strategy -- *)

let test_criu_isolates () =
  let strat = Gh_isolation.Criu.make ~rng:(Rng.create 1) small_spec in
  let leaked = ref 0 in
  for i = 1 to 8 do
    let principal = if i mod 2 = 1 then alice else bob in
    let inv = strat.Intf.invoke (Request.make ~id:i ~principal ()) in
    leaked :=
      !leaked
      + List.length
          (List.filter
             (fun w -> not (Principal.owns_word principal w))
             inv.Intf.response.Fm.residue)
  done;
  check_int "CRIU never leaks" 0 !leaked

let test_criu_restore_is_footprint_proportional () =
  let strat = Gh_isolation.Criu.make ~rng:(Rng.create 2) small_spec in
  let inv = strat.Intf.invoke (Request.make ~id:1 ~principal:alice ()) in
  let pages = strat.Intf.snapshot_pages () in
  check_int "restore cost matches the model"
    (Gh_isolation.Criu.restore_cost_ns ~present_pages:pages)
    inv.Intf.post_ns;
  (* Orders of magnitude above a Groundhog restore of the same function. *)
  let gh = Gh_isolation.Gh.make ~rng:(Rng.create 2) small_spec in
  let gh_inv = gh.Intf.invoke (Request.make ~id:1 ~principal:alice ()) in
  check_bool "CRIU restore is >10x GH restore" true
    (inv.Intf.post_ns > 10 * gh_inv.Intf.post_ns);
  check_bool "CRIU restore is >100ms" true (inv.Intf.post_ns > Time_ns.of_ms 100.0)

let test_criu_in_registry () =
  (match Registry.of_string "criu" with
  | Ok Registry.Criu -> ()
  | _ -> Alcotest.fail "criu must parse");
  check_bool "criu supported everywhere" true (Registry.supports Registry.Criu small_spec)

(* -- Open-loop client -- *)

let constant_strategy ~exec_ns =
  Intf.stateless ~name:"const" ~init_ns:(Time_ns.of_ms 100.0) (fun req ->
      Intf.invocation ~on_path_ns:exec_ns ~outcome:Intf.Completed
        { Fm.value = req.Request.id; residue = []; output_kb = 1; crashed = false;
          hung = false })

let test_open_loop_client () =
  let engine = Engine.create () in
  let invoker =
    Gh_faas.Invoker.create engine ~n_containers:2 ~dispatch_ns:0 ~make_strategy:(fun _ ->
        constant_strategy ~exec_ns:(Time_ns.of_ms 2.0))
  in
  let controller =
    Gh_faas.Controller.create engine ~rng:(Rng.create 3) (Gh_faas.Invoker.submit invoker)
  in
  let r =
    Gh_faas.Client.open_loop engine controller ~rng:(Rng.create 4) ~rate_rps:100.0
      ~n_requests:50 ~principals:[| alice; bob |] ~input_kb:4
  in
  check_int "all arrivals complete" 50 r.Gh_faas.Client.completed;
  (* ~50 arrivals at 100 r/s span roughly half a simulated second. *)
  check_bool "duration plausible" true
    (r.Gh_faas.Client.duration_s > 0.2 && r.Gh_faas.Client.duration_s < 2.0)

let test_open_loop_rejects_bad_rate () =
  let engine = Engine.create () in
  let invoker =
    Gh_faas.Invoker.create engine ~n_containers:1 ~dispatch_ns:0 ~make_strategy:(fun _ ->
        constant_strategy ~exec_ns:1000)
  in
  let controller =
    Gh_faas.Controller.create engine ~rng:(Rng.create 5) (Gh_faas.Invoker.submit invoker)
  in
  Alcotest.check_raises "rate must be positive"
    (Invalid_argument "Client.open_loop: non-positive rate") (fun () ->
      ignore
        (Gh_faas.Client.open_loop engine controller ~rng:(Rng.create 6) ~rate_rps:0.0
           ~n_requests:1 ~principals:[| alice |] ~input_kb:1))

(* -- Cold-start containers -- *)

let test_cold_start_invoker () =
  let run ~prestarted =
    let engine = Engine.create () in
    let invoker =
      Gh_faas.Invoker.create engine ~n_containers:1 ~dispatch_ns:0 ~make_strategy:(fun _ ->
          let s = constant_strategy ~exec_ns:(Time_ns.of_ms 1.0) in
          if prestarted then s else Gh_faas.Invoker.with_cold_start s)
    in
    let latencies = ref [] in
    for i = 1 to 3 do
      Gh_faas.Invoker.submit invoker (Request.make ~id:i ~principal:alice ())
        ~on_response:(fun _ inv -> latencies := inv.Intf.on_path_ns :: !latencies)
    done;
    Engine.run_all engine;
    List.rev !latencies
  in
  (match run ~prestarted:false with
  | [ first; second; third ] ->
      check_bool "first request pays the cold start" true (first >= Time_ns.of_ms 101.0);
      check_bool "second request is warm" true (second < Time_ns.of_ms 2.0);
      check_bool "third request is warm" true (third < Time_ns.of_ms 2.0)
  | _ -> Alcotest.fail "expected three responses");
  match run ~prestarted:true with
  | [ first; _; _ ] -> check_bool "prestarted pools skip it" true (first < Time_ns.of_ms 2.0)
  | _ -> Alcotest.fail "expected three responses"

(* -- Ablation experiments -- *)

let test_tracking_ablation_crossover () =
  let points = Ablation_exp.run_tracking cfg ~mapped:4_000 () in
  let total (p : Ablation_exp.tracking_point) which =
    match which with
    | `Sd -> p.Ablation_exp.sd_low_ms +. p.Ablation_exp.sd_restore_ms
    | `Uffd -> p.Ablation_exp.uffd_low_ms +. p.Ablation_exp.uffd_restore_ms
  in
  (match points with
  | zero :: _ ->
      check_int "first point is zero dirtied" 0 zero.Ablation_exp.dirtied;
      check_bool "uffd wins with nothing dirtied" true (total zero `Uffd < total zero `Sd)
  | [] -> Alcotest.fail "no points");
  let last = List.nth points (List.length points - 1) in
  check_bool "soft-dirty wins at high density" true (total last `Sd < total last `Uffd)

let test_coalescing_ablation_monotone () =
  let points = Ablation_exp.run_coalescing cfg ~mapped:4_000 () in
  List.iter
    (fun (p : Ablation_exp.coalescing_point) ->
      check_bool "batching never hurts" true
        (p.Ablation_exp.with_ms <= p.Ablation_exp.without_ms +. 0.001))
    points;
  let last = List.nth points (List.length points - 1) in
  check_bool "batching matters at high density" true
    (last.Ablation_exp.without_ms > 1.5 *. last.Ablation_exp.with_ms)

(* -- Policy experiment -- *)

let test_policy_skip_scales_with_burst () =
  let entry = Option.get (Gh_workloads.Catalog.find "version (p)") in
  let points = Policy_exp.run cfg ~requests:32 entry in
  List.iter
    (fun (p : Policy_exp.point) ->
      check_int "never leaks across principals" 0 p.Policy_exp.leaks;
      if p.Policy_exp.burst = 1 then
        check_int "no skips when fully interleaved" 0
          (p.Policy_exp.always_restores - p.Policy_exp.trust_restores)
      else
        check_bool "skips grow with burst" true (p.Policy_exp.skip_rate > 0.0))
    points;
  let rates = List.map (fun (p : Policy_exp.point) -> p.Policy_exp.skip_rate) points in
  let rec nondecreasing = function
    | a :: b :: rest -> a <= b +. 1e-9 && nondecreasing (b :: rest)
    | _ -> true
  in
  check_bool "skip rate grows with locality" true (nondecreasing rates)

(* -- Motivation experiment -- *)

let test_motivation_ordering () =
  let entries = List.filter_map Gh_workloads.Catalog.find [ "version (p)"; "jacobi-1d (c)" ] in
  let rows = Motivation_exp.run cfg entries in
  List.iter
    (fun (r : Motivation_exp.row) ->
      check_bool "coldstart dwarfs GH latency" true
        (r.Motivation_exp.coldstart_ms > 10.0 *. r.Motivation_exp.gh_ms);
      check_bool "CRIU restore dwarfs GH restore" true
        (r.Motivation_exp.criu_restore_ms > 10.0 *. r.Motivation_exp.gh_restore_ms))
    rows

(* -- Snapshot-cost experiment -- *)

let test_snapshot_cost_proportionality () =
  let small = Option.get (Gh_workloads.Catalog.find "jacobi-1d (c)") in
  let big = Option.get (Gh_workloads.Catalog.find "sentiment (p)") in
  match Snapshot_exp.run cfg [ small; big ] with
  | [ s; b ] ->
      check_bool "bigger footprint" true
        (b.Snapshot_exp.present_pages > s.Snapshot_exp.present_pages);
      check_bool "costlier snapshot" true (b.Snapshot_exp.snapshot_ms > s.Snapshot_exp.snapshot_ms);
      check_bool "buffer sized to pages" true
        (Float.abs
           (s.Snapshot_exp.buffer_mb
           -. (float_of_int s.Snapshot_exp.present_pages *. 4096.0 /. 1048576.0))
        < 1e-9)
  | _ -> Alcotest.fail "two rows expected"

(* -- Incremental snapshots (§5.5 optimization) -- *)

let test_incremental_one_time_cow () =
  (* The salvage fault fires once per unique page over the container's
     lifetime: the second invocation writing the same pages pays no CoW. *)
  let spec = { small_spec with Fm.buggy_residue_leak = false } in
  let inst = Fm.build spec in
  let rng = Rng.create 9 in
  ignore (Fm.boot inst ~fault:Gh_sim.Fault.none rng);
  let mgr = Groundhog_core.Manager.create ~mode:Groundhog_core.Manager.Incremental (Fm.proc inst) in
  ignore (Groundhog_core.Manager.take_snapshot mgr);
  let invoke i =
    let acct = Gh_sim.Account.create () in
    ignore
      (Fm.invoke inst acct rng ~post_restore:(i > 1) (Request.make ~id:i ~principal:alice ()));
    Groundhog_core.Manager.mark_dirty mgr;
    ignore (Groundhog_core.Manager.restore mgr);
    Gh_sim.Account.total acct
  in
  let first = invoke 1 in
  let saved_after_first = Groundhog_core.Manager.buffer_pages mgr in
  check_bool "pages salvaged" true (saved_after_first > 0);
  (* Same nonce parity => same write plan; the CoW charges are gone. *)
  let third = invoke 3 in
  check_bool "later invocations cheaper (no salvage faults)" true
    (third < first - (saved_after_first / 2 * Gh_kernel.Cost.default.Gh_kernel.Cost.cow_fault_ns));
  let saved_after_third = Groundhog_core.Manager.buffer_pages mgr in
  check_bool "buffer growth stalls" true (saved_after_third <= saved_after_first + 16)

let test_incremental_buffer_below_footprint () =
  let spec = { small_spec with Fm.mapped_pages = 8_000; dirtied_pages = 100 } in
  let inst = Fm.build spec in
  let rng = Rng.create 10 in
  ignore (Fm.boot inst ~fault:Gh_sim.Fault.none rng);
  let eager = Groundhog_core.Snapshot.capture_exn (Gh_sim.Account.create ()) (Fm.proc inst) in
  check_bool "eager holds the footprint" true
    (eager.Groundhog_core.Snapshot.present_pages > 1_000);
  let spec2 = spec in
  let inst2 = Fm.build spec2 in
  ignore (Fm.boot inst2 ~fault:Gh_sim.Fault.none rng);
  let mgr = Groundhog_core.Manager.create ~mode:Groundhog_core.Manager.Incremental (Fm.proc inst2) in
  ignore (Groundhog_core.Manager.take_snapshot mgr);
  for i = 1 to 4 do
    ignore
      (Fm.invoke inst2 (Gh_sim.Account.create ()) rng ~post_restore:(i > 1)
         (Request.make ~id:i ~principal:alice ()));
    Groundhog_core.Manager.mark_dirty mgr;
    ignore (Groundhog_core.Manager.restore mgr)
  done;
  let buffer = Groundhog_core.Manager.buffer_pages mgr in
  check_bool "incremental buffer is a fraction of the footprint" true
    (buffer * 4 < eager.Groundhog_core.Snapshot.present_pages)

let test_incremental_manager_rejects_paranoid () =
  let inst = Fm.build small_spec in
  Alcotest.check_raises "paranoid+incremental rejected"
    (Invalid_argument "Manager.create: paranoid verification requires eager snapshots")
    (fun () ->
      ignore
        (Groundhog_core.Manager.create ~paranoid:true ~mode:Groundhog_core.Manager.Incremental
           (Fm.proc inst)))

let test_incremental_gh_strategy_isolates () =
  let strat =
    Gh_isolation.Gh.make ~mode:Groundhog_core.Manager.Incremental ~rng:(Rng.create 11)
      small_spec
  in
  let leaked = ref 0 in
  for i = 1 to 8 do
    let principal = if i mod 2 = 1 then alice else bob in
    let inv = strat.Intf.invoke (Request.make ~id:i ~principal ()) in
    leaked :=
      !leaked
      + List.length
          (List.filter
             (fun w -> not (Principal.owns_word principal w))
             inv.Intf.response.Fm.residue)
  done;
  check_int "incremental GH never leaks" 0 !leaked;
  check_bool "buffer reported" true (strat.Intf.snapshot_pages () > 0)

(* -- Crash recovery -- *)

let test_crash_semantics () =
  let spec =
    { small_spec with Fm.buggy_residue_leak = false; crash_rate = 1.0 }
  in
  let inst = Fm.build spec in
  let rng = Rng.create 13 in
  ignore (Fm.warmup inst (Gh_sim.Account.create ()) rng);
  (* Warm-up itself would crash with rate 1.0... build a non-crashing twin
     to warm, then flip: instead verify invoke reports the crash. *)
  Fm.mark_clean inst;
  let resp =
    Fm.invoke inst (Gh_sim.Account.create ()) rng ~post_restore:false
      (Request.make ~id:1 ~principal:alice ())
  in
  check_bool "crash reported" true resp.Fm.crashed;
  check_int "no output from a crashed run" 0 resp.Fm.output_kb

let test_crash_recovery_costs () =
  let spec =
    {
      Fm.default_spec with
      Fm.name = "crashy";
      mapped_pages = 3_000;
      dirtied_pages = 100;
      read_pages = 300;
      crash_rate = 0.5;
      exec_ns = Gh_sim.Time_ns.of_ms 2.0;
    }
  in
  let serve strat n =
    let recovery = ref 0 and crashes = ref 0 in
    for i = 1 to n do
      let inv = strat.Intf.invoke (Request.make ~id:i ~principal:alice ()) in
      if inv.Intf.response.Fm.crashed then begin
        incr crashes;
        recovery := !recovery + inv.Intf.post_ns
      end
    done;
    (!crashes, !recovery)
  in
  let base = Gh_isolation.Base.make ~rng:(Rng.create 3) spec in
  let crashes, recovery = serve base 20 in
  check_bool "crashes happened" true (crashes > 0);
  (* C containers rebuild in ~55-60 ms (runtime boot + warm-up). *)
  check_bool "BASE rebuild costs >40ms per crash" true
    (recovery > crashes * Time_ns.of_ms 40.0);
  let gh = Gh_isolation.Gh.make ~rng:(Rng.create 3) spec in
  let gh_crashes, gh_recovery = serve gh 20 in
  check_bool "GH recovers in restore time" true
    (gh_crashes = 0 || gh_recovery / gh_crashes < Time_ns.of_ms 20.0)

let test_crash_never_leaks_through_gh () =
  (* Even interleaving crashes with buggy reads, GH never leaks. *)
  let spec = { small_spec with Fm.crash_rate = 0.4 } in
  let strat = Gh_isolation.Gh.make ~rng:(Rng.create 14) spec in
  let leaked = ref 0 in
  for i = 1 to 20 do
    let principal = if i land 1 = 1 then alice else bob in
    let inv = strat.Intf.invoke (Request.make ~id:i ~principal ()) in
    leaked :=
      !leaked
      + List.length
          (List.filter
             (fun w -> not (Principal.owns_word principal w))
             inv.Intf.response.Fm.residue)
  done;
  check_int "no cross-principal residue despite crashes" 0 !leaked

let test_crash_experiment_shape () =
  let entry = Option.get (Gh_workloads.Catalog.find "deltablue (p)") in
  let points = Crash_exp.run cfg ~rates:[ 0.0; 0.3 ] ~requests:30 entry in
  match points with
  | [ clean; crashy ] ->
      let total_crashes p =
        List.fold_left (fun n (_, c) -> n + c) 0 p.Crash_exp.crashes
      in
      check_int "no crashes at rate 0" 0 (total_crashes clean);
      check_bool "crashes at rate 0.3" true (total_crashes crashy > 0);
      let occ p s = List.assoc s p.Crash_exp.occupancy_ms in
      check_bool "BASE occupancy grows with crashes" true
        (occ crashy Registry.Base > 2.0 *. occ clean Registry.Base);
      check_bool "GH occupancy roughly flat" true
        (occ crashy Registry.Gh < 1.5 *. occ clean Registry.Gh)
  | _ -> Alcotest.fail "two points expected"

(* -- Registry -- *)

let test_extras_registry () =
  check_int "eleven extras" 11 (List.length Experiments.extras);
  List.iter
    (fun id ->
      match Experiments.of_string (Experiments.to_string id) with
      | Ok id' -> check_bool "roundtrip" true (id = id')
      | Error msg -> Alcotest.fail msg)
    Experiments.extras

let () =
  Alcotest.run "extensions"
    [
      ( "criu",
        [
          Alcotest.test_case "isolates" `Quick test_criu_isolates;
          Alcotest.test_case "footprint-proportional restore" `Quick
            test_criu_restore_is_footprint_proportional;
          Alcotest.test_case "registry" `Quick test_criu_in_registry;
        ] );
      ( "open-loop",
        [
          Alcotest.test_case "poisson arrivals" `Quick test_open_loop_client;
          Alcotest.test_case "rejects bad rate" `Quick test_open_loop_rejects_bad_rate;
        ] );
      ("cold-start", [ Alcotest.test_case "first request pays" `Quick test_cold_start_invoker ]);
      ( "ablations",
        [
          Alcotest.test_case "tracking crossover" `Quick test_tracking_ablation_crossover;
          Alcotest.test_case "coalescing monotone" `Quick test_coalescing_ablation_monotone;
        ] );
      ("policy", [ Alcotest.test_case "skip vs burst" `Quick test_policy_skip_scales_with_burst ]);
      ("motivation", [ Alcotest.test_case "ordering" `Quick test_motivation_ordering ]);
      ( "snapshot-cost",
        [ Alcotest.test_case "proportionality" `Quick test_snapshot_cost_proportionality ] );
      ( "crash-recovery",
        [
          Alcotest.test_case "crash semantics" `Quick test_crash_semantics;
          Alcotest.test_case "recovery costs" `Quick test_crash_recovery_costs;
          Alcotest.test_case "GH never leaks despite crashes" `Quick
            test_crash_never_leaks_through_gh;
          Alcotest.test_case "experiment shape" `Quick test_crash_experiment_shape;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "one-time CoW" `Quick test_incremental_one_time_cow;
          Alcotest.test_case "buffer below footprint" `Quick
            test_incremental_buffer_below_footprint;
          Alcotest.test_case "rejects paranoid" `Quick test_incremental_manager_rejects_paranoid;
          Alcotest.test_case "GH strategy isolates" `Quick test_incremental_gh_strategy_isolates;
        ] );
      ("registry", [ Alcotest.test_case "extras" `Quick test_extras_registry ]);
    ]
