(* Integration tests for the experiment harness: the experiments run, the
   measurements have the paper's qualitative shape, the reports render. *)

module Stats = Gh_sim.Stats
module Registry = Gh_isolation.Registry
module Catalog = Gh_workloads.Catalog
open Gh_harness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A tiny config so the integration tests stay fast. *)
let cfg =
  {
    Config.quick with
    Config.latency_requests = 12;
    latency_requests_medium = 6;
    latency_requests_long = 3;
    tput_requests = 12;
    microbench_requests = 5;
    breakdown_requests = 4;
  }

let entry name = Option.get (Catalog.find name)

(* -- Config -- *)

let test_config_adaptive_counts () =
  let fast = entry "version (p)" and slow = entry "cholesky (c)" in
  check_int "fast benchmarks get full runs" cfg.Config.latency_requests
    (Config.latency_requests_for cfg fast.Catalog.spec);
  check_int "multi-minute kernels get few" cfg.Config.latency_requests_long
    (Config.latency_requests_for cfg slow.Catalog.spec);
  check_bool "tput adapts too" true
    (Config.tput_requests_for cfg slow.Catalog.spec
    < Config.tput_requests_for cfg fast.Catalog.spec)

(* -- Latency experiment -- *)

let test_latency_exp_shape () =
  let e = entry "version (p)" in
  let results = Latency_exp.run cfg [ e ] in
  match results with
  | [ r ] ->
      let base = Option.get (Latency_exp.find r Registry.Base) in
      let gh = Option.get (Latency_exp.find r Registry.Gh) in
      check_bool "GH invoker latency above BASE" true
        (gh.Latency_exp.invoker.Stats.mean > base.Latency_exp.invoker.Stats.mean);
      check_bool "e2e above invoker (platform overhead)" true
        (base.Latency_exp.e2e.Stats.mean > base.Latency_exp.invoker.Stats.mean +. 20.0);
      (* Relative e2e overhead is diluted vs invoker overhead. *)
      let rel = Latency_exp.relative_to_base r in
      let _, gh_e2e, gh_inv =
        List.find (fun (id, _, _) -> id = Registry.Gh) rel
      in
      check_bool "platform dilutes relative overhead" true (gh_e2e < gh_inv);
      (* FORK is measured for this single-threaded python benchmark. *)
      check_bool "fork measured" true (Latency_exp.find r Registry.Fork <> None)
  | _ -> Alcotest.fail "one result expected"

let test_latency_exp_skips_unsupported () =
  let e = entry "json (n)" in
  let results = Latency_exp.run cfg [ e ] in
  match results with
  | [ r ] ->
      check_bool "no fork on node" true (Latency_exp.find r Registry.Fork = None);
      check_bool "no faasm without port" true (Latency_exp.find r Registry.Faasm = None);
      check_bool "gh measured" true (Latency_exp.find r Registry.Gh <> None)
  | _ -> Alcotest.fail "one result expected"

let test_latency_logging_anomaly () =
  (* GH beats BASE on logging(p): the restore rolls the leak back. *)
  let lcfg = { cfg with Config.latency_requests_medium = 40 } in
  let results = Latency_exp.run ~strategies:[ Registry.Base; Registry.Gh ] lcfg
      [ entry "logging (p)" ] in
  match results with
  | [ r ] ->
      let base = Option.get (Latency_exp.find r Registry.Base) in
      let gh = Option.get (Latency_exp.find r Registry.Gh) in
      check_bool "GH is faster than the leaking BASE" true
        (gh.Latency_exp.invoker.Stats.mean < base.Latency_exp.invoker.Stats.mean)
  | _ -> Alcotest.fail "one result expected"

(* -- Throughput experiment -- *)

let test_throughput_exp_shape () =
  let e = entry "fannkuch (p)" in
  let results = Throughput_exp.run cfg [ e ] in
  match results with
  | [ r ] ->
      let base = Option.get (Throughput_exp.find r Registry.Base) in
      let gh = Option.get (Throughput_exp.find r Registry.Gh) in
      let nop = Option.get (Throughput_exp.find r Registry.Gh_nop) in
      check_bool "positive throughput" true (base.Throughput_exp.tput_rps > 0.0);
      check_bool "GH below BASE (restore eats cycles)" true
        (gh.Throughput_exp.tput_rps < base.Throughput_exp.tput_rps);
      check_bool "GH_NOP within 15% of BASE" true
        (Float.abs (nop.Throughput_exp.tput_rps -. base.Throughput_exp.tput_rps)
        < 0.15 *. base.Throughput_exp.tput_rps)
  | _ -> Alcotest.fail "one result expected"

(* -- Scaling -- *)

let test_scaling_linearity () =
  let results = Scaling_exp.run ~max_cores:3 cfg [ entry "deltablue (p)" ] in
  match results with
  | [ r ] ->
      check_int "three points" 3 (List.length r.Scaling_exp.by_cores);
      (match Scaling_exp.linearity r with
      | Some l -> check_bool "near-linear scaling" true (l > 0.8 && l < 1.25)
      | None -> Alcotest.fail "linearity undefined");
      let t1 = List.assoc 1 r.Scaling_exp.by_cores in
      let t3 = List.assoc 3 r.Scaling_exp.by_cores in
      check_bool "monotone" true (t3 > t1)
  | _ -> Alcotest.fail "one result expected"

(* -- Breakdown -- *)

let test_breakdown_exp () =
  let r = Breakdown_exp.run_one cfg (entry "pickle (p)") in
  check_bool "restore time positive" true (r.Breakdown_exp.restore_ms > 0.0);
  check_bool "snapshot time positive" true (r.Breakdown_exp.snapshot_ms > 0.0);
  check_bool "snapshot pages positive" true (r.Breakdown_exp.snapshot_pages > 0);
  check_bool "faasm reset measured (wasm port)" true (r.Breakdown_exp.faasm_reset_ms <> None);
  let steps = Groundhog_core.Breakdown.steps r.Breakdown_exp.mean in
  let sum = List.fold_left (fun n (_, ns) -> n + ns) 0 steps in
  check_bool "steps sum to ~total" true
    (abs (sum - r.Breakdown_exp.mean.Groundhog_core.Breakdown.total_ns) <= List.length steps);
  let r2 = Breakdown_exp.run_one cfg (entry "json (n)") in
  check_bool "node restore dominated by scan+reset share" true
    (r2.Breakdown_exp.mean.Groundhog_core.Breakdown.scan_ns
    > r2.Breakdown_exp.mean.Groundhog_core.Breakdown.copy_ns);
  check_bool "no faasm for node" true (r2.Breakdown_exp.faasm_reset_ms = None)

(* -- Microbench -- *)

let test_microbench_points () =
  let points = Microbench_exp.run_right { cfg with Config.microbench_requests = 4 } in
  check_int "8 points" 8 (List.length points);
  let first = List.hd points and last = List.nth points (List.length points - 1) in
  let gh_high p = List.assoc Registry.Gh p.Microbench_exp.high_ms in
  let gh_low p = List.assoc Registry.Gh p.Microbench_exp.low_ms in
  check_bool "high-load latency grows with address space" true (gh_high last > gh_high first);
  (* In-function overhead is roughly independent of address-space size. *)
  check_bool "low-load latency grows far less" true
    (gh_low last -. gh_low first < 0.3 *. (gh_high last -. gh_high first));
  let fork_low p = List.assoc Registry.Fork p.Microbench_exp.low_ms in
  check_bool "fork's on-path cost grows with address space" true
    (fork_low last > fork_low first +. 5.0)

(* -- Summary -- *)

let test_summary_compute () =
  let entries = [ entry "version (p)"; entry "fannkuch (p)"; entry "atax (c)" ] in
  let lat = Latency_exp.run ~strategies:[ Registry.Base; Registry.Gh ] cfg entries in
  let tput = Throughput_exp.run ~strategies:[ Registry.Base; Registry.Gh ] cfg entries in
  let bd = Breakdown_exp.run ~with_faasm:false cfg entries in
  let s = Summary.compute lat tput bd in
  check_int "three latency points" 3 s.Summary.latency_overhead_pct.Stats.n;
  check_bool "median restore in sane range" true
    (s.Summary.restore_ms.Stats.median > 0.1 && s.Summary.restore_ms.Stats.median < 50.0)

(* -- Report rendering -- *)

let test_report_table () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Report.table ppf ~title:"T" ~header:[ "a"; "b" ] [ [ "x"; "1" ]; [ "longer"; "22" ] ];
  Format.pp_print_flush ppf ();
  let s = Buffer.contents buf in
  check_bool "title" true (String.length s > 0);
  check_bool "contains rows" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 0))

let test_report_series () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Report.series ppf ~title:"S" ~x_label:"x" ~columns:[ "a"; "b" ]
    [ (1.0, [ Some 2.0; None ]); (2.0, [ Some 4.0; Some 8.0 ]) ];
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  check_bool "missing points dash" true (String.contains out '-');
  check_bool "x label present" true (String.length out > 10)

let test_print_functions_render () =
  (* Smoke: every print function renders without raising on tiny data. *)
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let e = entry "version (p)" in
  let lat = Latency_exp.run ~strategies:[ Registry.Base; Registry.Gh ] cfg [ e ] in
  Latency_exp.print_fig4 ppf lat;
  let tput = Throughput_exp.run ~strategies:[ Registry.Base; Registry.Gh ] cfg [ e ] in
  Throughput_exp.print_fig5 ppf tput;
  let bd = Breakdown_exp.run ~with_faasm:false cfg [ e ] in
  Breakdown_exp.print_fig8 ppf bd;
  Breakdown_exp.print_fig6 ppf bd;
  Tables.print_table1 ppf lat tput;
  Tables.print_table2 ppf lat tput;
  Tables.print_table3 ppf lat tput bd;
  Format.pp_print_flush ppf ();
  check_bool "substantial output" true (Buffer.length buf > 500)

let test_report_formats () =
  Alcotest.(check string) "pct" "+1.5%" (Report.fmt_pct 1.5);
  Alcotest.(check string) "pct nan" "-" (Report.fmt_pct Float.nan);
  Alcotest.(check string) "ms small" "0.50" (Report.fmt_ms 0.5);
  Alcotest.(check string) "ms large" "1234" (Report.fmt_ms 1234.0);
  Alcotest.(check string) "tput" "12.00" (Report.fmt_tput 12.0)

(* -- Determinism -- *)

let test_experiments_deterministic () =
  let e = entry "version (p)" in
  let run () =
    match Latency_exp.run ~strategies:[ Registry.Base; Registry.Gh ] cfg [ e ] with
    | [ r ] ->
        let m = Option.get (Latency_exp.find r Registry.Gh) in
        (m.Latency_exp.invoker.Stats.mean, m.Latency_exp.e2e.Stats.mean)
    | _ -> Alcotest.fail "one result"
  in
  let a = run () and b = run () in
  Alcotest.(check (pair (float 0.0) (float 0.0))) "bit-identical reruns" a b;
  let tput () =
    match Throughput_exp.run_one cfg Registry.Gh e with
    | Some m -> m.Throughput_exp.tput_rps
    | None -> Alcotest.fail "supported"
  in
  Alcotest.(check (float 0.0)) "throughput deterministic too" (tput ()) (tput ())

let test_seed_changes_results () =
  let e = entry "version (p)" in
  let with_seed seed =
    let cfg = { cfg with Config.seed } in
    match Latency_exp.run_one cfg Registry.Base e with
    | Some m -> m.Latency_exp.invoker.Stats.mean
    | None -> Alcotest.fail "supported"
  in
  check_bool "different seeds perturb the noise" true (with_seed 1 <> with_seed 2)

(* -- Experiments registry -- *)

(* The canonical names, in [all @ extras] order. *)
let names =
  Experiments.
    [
      ("fig3-left", Fig3_left);
      ("fig3-right", Fig3_right);
      ("fig4", Fig4);
      ("fig5", Fig5);
      ("fig6", Fig6);
      ("fig7", Fig7);
      ("fig8", Fig8);
      ("table1", Table1);
      ("table2", Table2);
      ("table3", Table3);
      ("headline", Headline);
      ("motivation", Motivation);
      ("ablation-tracking", Ablation_tracking);
      ("ablation-coalescing", Ablation_coalescing);
      ("policy-skip", Policy_skip);
      ("load-latency", Load_latency);
      ("snapshot-cost", Snapshot_cost);
      ("multi-tenant", Multi_tenant);
      ("crash-recovery", Crash_recovery);
      ("fault-injection", Fault_injection);
      ("overload", Overload);
      ("scrub-integrity", Scrub_integrity);
    ]

let aliases =
  Experiments.
    [
      ("fig3left", Fig3_left);
      ("fig3", Fig3_left);
      ("fig3right", Fig3_right);
      ("summary", Headline);
      ("uffd", Ablation_tracking);
      ("coalescing", Ablation_coalescing);
      ("policy", Policy_skip);
      ("load", Load_latency);
      ("snapshot", Snapshot_cost);
      ("tenant", Multi_tenant);
      ("density", Multi_tenant);
      ("crash", Crash_recovery);
      ("fault", Fault_injection);
      ("faults", Fault_injection);
      ("brownout", Overload);
      ("scrub", Scrub_integrity);
      ("integrity", Scrub_integrity);
    ]

let test_experiments_registry () =
  check_int "11 experiments" 11 (List.length Experiments.all);
  let ids = Experiments.all @ Experiments.extras in
  check_bool "every id named once, in order" true (List.map snd names = ids);
  Alcotest.(check (list string))
    "to_string" (List.map fst names) (List.map Experiments.to_string ids);
  List.iter
    (fun (spelling, id) ->
      List.iter
        (fun s ->
          match Experiments.of_string s with
          | Ok id' -> check_bool s true (id = id')
          | Error msg -> Alcotest.fail msg)
        [ spelling; String.uppercase_ascii spelling; String.capitalize_ascii spelling ])
    (names @ aliases);
  List.iter
    (fun s ->
      match Experiments.of_string s with
      | Error msg -> Alcotest.(check string) s {|unknown experiment "fig99"|} msg
      | Ok _ -> Alcotest.fail "unknown experiment must fail")
    [ "fig99"; "FIG99" ]

let () =
  Alcotest.run "gh_harness"
    [
      ("config", [ Alcotest.test_case "adaptive counts" `Quick test_config_adaptive_counts ]);
      ( "latency",
        [
          Alcotest.test_case "shape" `Quick test_latency_exp_shape;
          Alcotest.test_case "skips unsupported" `Quick test_latency_exp_skips_unsupported;
          Alcotest.test_case "logging anomaly" `Quick test_latency_logging_anomaly;
        ] );
      ("throughput", [ Alcotest.test_case "shape" `Quick test_throughput_exp_shape ]);
      ("scaling", [ Alcotest.test_case "linearity" `Quick test_scaling_linearity ]);
      ("breakdown", [ Alcotest.test_case "fields" `Quick test_breakdown_exp ]);
      ("microbench", [ Alcotest.test_case "points" `Quick test_microbench_points ]);
      ("summary", [ Alcotest.test_case "compute" `Quick test_summary_compute ]);
      ( "report",
        [
          Alcotest.test_case "table" `Quick test_report_table;
          Alcotest.test_case "series" `Quick test_report_series;
          Alcotest.test_case "all print functions" `Quick test_print_functions_render;
          Alcotest.test_case "formats" `Quick test_report_formats;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "reruns identical" `Quick test_experiments_deterministic;
          Alcotest.test_case "seed matters" `Quick test_seed_changes_results;
        ] );
      ("experiments", [ Alcotest.test_case "registry" `Quick test_experiments_registry ]);
    ]
