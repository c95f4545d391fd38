(* Byte-level safety net for the five fail-closed sweeps (fault, overload,
   cluster, scrub, slo). Each sweep descriptor's smoke grid runs at three
   seeds; the rendered table must hash to the golden below — the md5 of
   `gh-bench <sweep> --smoke --seed N` stdout — and the sweep's gate must
   pass. Any refactor of the harnesses must keep every golden. *)

module Config = Gh_harness.Config
module Catalog = Gh_workloads.Catalog

let entry = Option.get (Catalog.find "deltablue (p)")

let goldens =
  [
    ( "fault",
      [
        (1, "683faacd3e2340a6a1b14a3abd2ef479");
        (42, "0b9f50fb434f8555b6ababb998e144ab");
        (1337, "1aa8ef89472dad1304d10b518e1a489b");
      ] );
    ( "overload",
      [
        (1, "6bad7a0ff3eb98d2345f35f729fe4670");
        (42, "05316642e3d2b33db64f9bf844dd1cdd");
        (1337, "772eee75efad6ea31d5a0072dc431fdd");
      ] );
    ( "cluster",
      [
        (1, "8467c7d333855cb8f62e599a4a88514a");
        (42, "f60f74b945830b75b9f3a104d0780929");
        (1337, "fc0742a488b517fff860be140c18602b");
      ] );
    ( "scrub",
      [
        (1, "8680d0643f3984578724113a551b6152");
        (42, "ee2fd348324322adaac7accbb8e128c7");
        (1337, "cdad7237f84a9e73ccd91611a39c71e7");
      ] );
    ( "slo",
      [
        (1, "30d44106d9ee002f750036a2ff516430");
        (42, "388a505f669af650c968ea5eb7136516");
        (1337, "75a925fa455480dda7998b0fdf3394b2");
      ] );
  ]

(* [-n] does not apply to the smoke grid; the default is passed as the CLI
   would. *)
let check_golden (Gh_harness.Sweep.Sweep s as sweep) seed md5 () =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let gate =
    Gh_harness.Sweep.exec sweep { Config.default with Config.seed } ~smoke:true
      ~requests:s.default_n entry ppf
  in
  Format.pp_print_flush ppf ();
  Alcotest.(check (result unit string)) "gate" (Ok ()) gate;
  Alcotest.(check string) "table md5" md5 (Digest.to_hex (Digest.string (Buffer.contents buf)))

let golden_cases =
  List.concat_map
    (fun (Gh_harness.Sweep.Sweep s as sweep) ->
      List.map
        (fun (seed, md5) ->
          Alcotest.test_case (Printf.sprintf "%s seed %d" s.name seed) `Quick
            (check_golden sweep seed md5))
        (List.assoc s.name goldens))
    Gh_harness.Experiments.sweeps

(* The cluster acceptance check, on hand-built rows: at 1%/min the
   failover-on arm must hold 99% availability and the failover-off arm
   must collapse below 90%. *)
let cluster_row ~rate ~failover ~availability =
  {
    Gh_harness.Cluster_exp.rate_per_min = rate;
    placement = Gh_faas.Cluster.Least_loaded;
    failover;
    offered = 100;
    served = int_of_float (100.0 *. availability);
    failed = 0;
    availability;
    goodput_rps = 0.0;
    p50_ms = 10.0;
    p99_ms = 20.0;
    failover_p99_ms = Float.nan;
    retries = 0;
    hedges = 0;
    cancelled = 0;
    crashes = 0;
    hangs = 0;
    restarts = 0;
    timeouts = 0;
    wasted = 0;
    lost = 0;
    double_served = 0;
    shed_and_served = 0;
    conservation_residue = 0;
    inflight_residue = 0;
  }

let cluster_gate ~on ~off =
  Gh_harness.Cluster_exp.gate
    [
      {
        Gh_harness.Cluster_exp.rate_per_min = 0.0;
        rows = [ cluster_row ~rate:0.0 ~failover:true ~availability:1.0 ];
      };
      {
        rate_per_min = 0.01;
        rows =
          [
            cluster_row ~rate:0.01 ~failover:true ~availability:on;
            cluster_row ~rate:0.01 ~failover:false ~availability:off;
          ];
      };
    ]

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let expect_error ~names = function
  | Ok () -> Alcotest.failf "expected the gate to fail naming %S" names
  | Error msg ->
      if not (contains msg names) then Alcotest.failf "%S does not name %S" msg names

let test_cluster_acceptance () =
  Alcotest.(check (result unit string)) "healthy arms pass" (Ok ())
    (cluster_gate ~on:0.995 ~off:0.6);
  expect_error ~names:"failover-on availability 98.00% < 99%"
    (cluster_gate ~on:0.98 ~off:0.6);
  expect_error ~names:"failover-off availability 95.00% did not collapse"
    (cluster_gate ~on:0.995 ~off:0.95)

(* Known defect, pinned as it stands so no refactor can hide or move it:
   the default scrub grid at seed 3 dispatches a request into a dirty
   GH process and the actionloop refuses it. Flip this test to expect a
   clean sweep once the whole-stack isolation oracle (ROADMAP item 4)
   fixes the defect. *)
let test_scrub_seed3_defect () =
  let cfg = { Config.default with Config.seed = 3 } in
  Alcotest.check_raises "actionloop refuses the dirty dispatch"
    (Failure "Groundhog actionloop: input held back from a dirty process") (fun () ->
      ignore (Gh_harness.Scrub_exp.run cfg ~requests:60 entry))

let () =
  Alcotest.run "sweeps"
    [
      ("smoke-goldens", golden_cases);
      ( "gates",
        [
          Alcotest.test_case "cluster acceptance names the failed arm" `Quick
            test_cluster_acceptance;
        ] );
      ( "known-defects",
        [ Alcotest.test_case "scrub seed 3 raises (pinned)" `Quick test_scrub_seed3_defect ] );
    ]
