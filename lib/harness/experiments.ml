module Catalog = Gh_workloads.Catalog
module Representative = Gh_workloads.Representative

type id =
  | Fig3_left
  | Fig3_right
  | Fig4
  | Fig5
  | Fig6
  | Fig7
  | Fig8
  | Table1
  | Table2
  | Table3
  | Headline
  | Motivation
  | Ablation_tracking
  | Ablation_coalescing
  | Policy_skip
  | Load_latency
  | Snapshot_cost
  | Multi_tenant
  | Crash_recovery
  | Fault_injection
  | Overload
  | Scrub_integrity

let all =
  [ Fig3_left; Fig3_right; Fig4; Fig5; Fig6; Fig7; Fig8; Table1; Table2; Table3; Headline ]

let extras =
  [
    Motivation;
    Ablation_tracking;
    Ablation_coalescing;
    Policy_skip;
    Load_latency;
    Snapshot_cost;
    Multi_tenant;
    Crash_recovery;
    Fault_injection;
    Overload;
    Scrub_integrity;
  ]

(* One row per experiment: id, CLI name, accepted aliases, description. *)
let table =
  [
    (Fig3_left, "fig3-left", [ "fig3left"; "fig3" ],
     "microbenchmark latency vs % pages dirtied (100K mapped pages)");
    (Fig3_right, "fig3-right", [ "fig3right" ],
     "microbenchmark latency vs address-space size (1K pages dirtied)");
    (Fig4, "fig4", [], "relative e2e and invoker latency, all 58 benchmarks");
    (Fig5, "fig5", [], "relative throughput, all 58 benchmarks");
    (Fig6, "fig6", [], "restoration duration: GH vs FAASM");
    (Fig7, "fig7", [], "GH throughput scaling with 1-4 cores (14 representative benchmarks)");
    (Fig8, "fig8", [],
     "restoration cost breakdown + snapshot cost (14 representative benchmarks)");
    (Table1, "table1", [], "absolute latency and throughput for all configurations");
    (Table2, "table2", [], "overheads relative to the insecure baseline");
    (Table3, "table3", [], "GH latency/throughput vs restoration cost, sorted by restore time");
    (Headline, "headline", [ "summary" ],
     "suite-wide medians/percentiles vs the paper's headline claims");
    (Motivation, "motivation", [],
     "per-request cost of GH vs coldstart and CRIU-style isolation (motivation)");
    (Ablation_tracking, "ablation-tracking", [ "uffd" ],
     "soft-dirty bits vs userfaultfd tracking sweep (ablation)");
    (Ablation_coalescing, "ablation-coalescing", [ "coalescing" ],
     "restore-copy run coalescing on/off sweep (ablation)");
    (Policy_skip, "policy-skip", [ "policy" ],
     "rollback-skip policy vs caller diversity (extension of 4.4)");
    (Load_latency, "load-latency", [ "load" ],
     "open-loop latency vs offered load, BASE vs GH (extension)");
    (Snapshot_cost, "snapshot-cost", [ "snapshot" ],
     "one-time snapshotting cost across the whole catalog (5.5)");
    (Multi_tenant, "multi-tenant", [ "tenant"; "density" ],
     "container density under a shared node: BASE vs eager GH vs incremental GH");
    (Crash_recovery, "crash-recovery", [ "crash" ],
     "restore as fault recovery: occupancy vs crash rate (extension)");
    (Fault_injection, "fault-injection", [ "fault"; "faults" ],
     "seeded fault injection: availability/goodput/MTTR/p99 under fail-closed recovery");
    (Overload, "overload", [ "brownout" ],
     "overload sweep: goodput/shedding/deadline misses with protection on vs off");
    (Scrub_integrity, "scrub-integrity", [ "scrub"; "integrity" ],
     "snapshot integrity: corruption rate x verification policy (hashing, scrubbing, dedup)");
  ]

let row id = List.find (fun (id', _, _, _) -> id' = id) table
let to_string id = match row id with _, name, _, _ -> name
let describe id = match row id with _, _, _, doc -> doc

let of_string s =
  let s = String.lowercase_ascii s in
  match List.find_opt (fun (_, name, aliases, _) -> name = s || List.mem s aliases) table with
  | Some (id, _, _, _) -> Ok id
  | None -> Error (Printf.sprintf "unknown experiment %S" s)

(* The catalog-wide sweeps that several experiments share (Table1 after
   Fig4 must not re-measure), each forced at most once per batch. *)
type cache = {
  latency : Latency_exp.result list Lazy.t;
  tput : Throughput_exp.result list Lazy.t;
  breakdown_all : Breakdown_exp.result list Lazy.t;
  breakdown_rep : Breakdown_exp.result list Lazy.t;
}

let cache cfg =
  {
    latency = lazy (Latency_exp.run cfg Catalog.all);
    tput = lazy (Throughput_exp.run cfg Catalog.all);
    breakdown_all = lazy (Breakdown_exp.run cfg Catalog.all);
    breakdown_rep = lazy (Breakdown_exp.run cfg Representative.entries);
  }

(* Single-benchmark experiments pin their workload by catalog name; a
   lookup miss used to surface as [Option.get] (anonymous
   [Invalid_argument]) — fail naming the entry instead. *)
let catalog_entry name =
  match Catalog.find name with
  | Some entry -> entry
  | None -> failwith (Printf.sprintf "Experiments: no catalog entry named %S" name)

let run ?cache:c id cfg ppf =
  let cache = match c with Some c -> c | None -> cache cfg in
  let latency () = Lazy.force cache.latency and tput () = Lazy.force cache.tput in
  let breakdown_all () = Lazy.force cache.breakdown_all in
  match id with
  | Fig3_left ->
      Microbench_exp.print ppf
        ~title:"Fig 3 (left) — latency (ms) vs % pages dirtied, 100K mapped pages"
        ~x_label:"%dirtied" (Microbench_exp.run_left cfg)
  | Fig3_right ->
      Microbench_exp.print ppf
        ~title:"Fig 3 (right) — latency (ms) vs address-space size, 1K pages dirtied"
        ~x_label:"pages" (Microbench_exp.run_right cfg)
  | Fig4 -> Latency_exp.print_fig4 ppf (latency ())
  | Fig5 -> Throughput_exp.print_fig5 ppf (tput ())
  | Fig6 -> Breakdown_exp.print_fig6 ppf (Breakdown_exp.run cfg Catalog.wasm_ported)
  | Fig7 -> Scaling_exp.print_fig7 ppf (Scaling_exp.run cfg Representative.entries)
  | Fig8 -> Breakdown_exp.print_fig8 ppf (Lazy.force cache.breakdown_rep)
  | Table1 -> Tables.print_table1 ppf (latency ()) (tput ())
  | Table2 -> Tables.print_table2 ppf (latency ()) (tput ())
  | Table3 -> Tables.print_table3 ppf (latency ()) (tput ()) (breakdown_all ())
  | Headline -> Summary.print ppf (Summary.compute (latency ()) (tput ()) (breakdown_all ()))
  | Motivation ->
      let entries = List.filter_map Catalog.find Motivation_exp.default_benchmarks in
      Motivation_exp.print ppf (Motivation_exp.run cfg entries)
  | Ablation_tracking -> Ablation_exp.print_tracking ppf (Ablation_exp.run_tracking cfg ())
  | Ablation_coalescing ->
      Ablation_exp.print_coalescing ppf (Ablation_exp.run_coalescing cfg ())
  | Policy_skip ->
      let entry = catalog_entry "deltablue (p)" in
      Policy_exp.print ppf entry (Policy_exp.run cfg entry)
  | Load_latency ->
      let entry = catalog_entry "deltablue (p)" in
      Load_exp.print ppf entry (Load_exp.run cfg entry)
  | Snapshot_cost -> Snapshot_exp.print ppf (Snapshot_exp.run cfg Catalog.all)
  | Multi_tenant ->
      let entries = List.filter_map Catalog.find Tenant_exp.default_functions in
      Tenant_exp.print ppf (Tenant_exp.run cfg entries)
  | Crash_recovery ->
      let entry = catalog_entry "deltablue (p)" in
      Crash_exp.print ppf entry (Crash_exp.run cfg entry)
  | Fault_injection ->
      let entry = catalog_entry "deltablue (p)" in
      Fault_exp.print ppf entry (Fault_exp.run cfg entry)
  | Overload ->
      let entry = catalog_entry "deltablue (p)" in
      Overload_exp.print ppf entry (Overload_exp.run cfg entry)
  | Scrub_integrity ->
      let entry = catalog_entry "deltablue (p)" in
      Scrub_exp.print ppf entry (Scrub_exp.run cfg entry)

(* Each experiment renders into its own buffer-backed formatter (header
   included); the buffers are concatenated in request order, so the merged
   report is byte-for-byte what serial printing straight to [ppf] produced.
   Experiments themselves run one after another — the parallelism lives in
   the per-cell sweeps underneath (see {!Sweep.map}) — and they
   share one {!cache} so e.g. Table1 after Fig4 reuses the latency sweep. *)
let run_list ids cfg ppf =
  let cache = cache cfg in
  List.iter
    (fun id ->
      let buf = Buffer.create 4096 in
      let bppf = Format.formatter_of_buffer buf in
      Format.fprintf bppf "@.#### %s: %s@." (to_string id) (describe id);
      run ~cache id cfg bppf;
      Format.pp_print_flush bppf ();
      Format.pp_print_string ppf (Buffer.contents buf))
    ids;
  Format.pp_print_flush ppf ()

let run_all cfg ppf = run_list all cfg ppf
let run_extras cfg ppf = run_list extras cfg ppf

let sweeps =
  [ Fault_exp.sweep; Overload_exp.sweep; Cluster_exp.sweep; Slo_exp.sweep; Scrub_exp.sweep ]
