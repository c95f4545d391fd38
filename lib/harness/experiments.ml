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

let to_string = function
  | Fig3_left -> "fig3-left"
  | Fig3_right -> "fig3-right"
  | Fig4 -> "fig4"
  | Fig5 -> "fig5"
  | Fig6 -> "fig6"
  | Fig7 -> "fig7"
  | Fig8 -> "fig8"
  | Table1 -> "table1"
  | Table2 -> "table2"
  | Table3 -> "table3"
  | Headline -> "headline"
  | Motivation -> "motivation"
  | Ablation_tracking -> "ablation-tracking"
  | Ablation_coalescing -> "ablation-coalescing"
  | Policy_skip -> "policy-skip"
  | Load_latency -> "load-latency"
  | Snapshot_cost -> "snapshot-cost"
  | Multi_tenant -> "multi-tenant"
  | Crash_recovery -> "crash-recovery"
  | Fault_injection -> "fault-injection"
  | Overload -> "overload"
  | Scrub_integrity -> "scrub-integrity"

let of_string s =
  match String.lowercase_ascii s with
  | "fig3-left" | "fig3left" -> Ok Fig3_left
  | "fig3-right" | "fig3right" -> Ok Fig3_right
  | "fig3" -> Ok Fig3_left
  | "fig4" -> Ok Fig4
  | "fig5" -> Ok Fig5
  | "fig6" -> Ok Fig6
  | "fig7" -> Ok Fig7
  | "fig8" -> Ok Fig8
  | "table1" -> Ok Table1
  | "table2" -> Ok Table2
  | "table3" -> Ok Table3
  | "headline" | "summary" -> Ok Headline
  | "motivation" -> Ok Motivation
  | "ablation-tracking" | "uffd" -> Ok Ablation_tracking
  | "ablation-coalescing" | "coalescing" -> Ok Ablation_coalescing
  | "policy-skip" | "policy" -> Ok Policy_skip
  | "load-latency" | "load" -> Ok Load_latency
  | "snapshot-cost" | "snapshot" -> Ok Snapshot_cost
  | "multi-tenant" | "tenant" | "density" -> Ok Multi_tenant
  | "crash-recovery" | "crash" -> Ok Crash_recovery
  | "fault-injection" | "fault" | "faults" -> Ok Fault_injection
  | "overload" | "brownout" -> Ok Overload
  | "scrub-integrity" | "scrub" | "integrity" -> Ok Scrub_integrity
  | other -> Error (Printf.sprintf "unknown experiment %S" other)

let describe = function
  | Fig3_left -> "microbenchmark latency vs % pages dirtied (100K mapped pages)"
  | Fig3_right -> "microbenchmark latency vs address-space size (1K pages dirtied)"
  | Fig4 -> "relative e2e and invoker latency, all 58 benchmarks"
  | Fig5 -> "relative throughput, all 58 benchmarks"
  | Fig6 -> "restoration duration: GH vs FAASM"
  | Fig7 -> "GH throughput scaling with 1-4 cores (14 representative benchmarks)"
  | Fig8 -> "restoration cost breakdown + snapshot cost (14 representative benchmarks)"
  | Table1 -> "absolute latency and throughput for all configurations"
  | Table2 -> "overheads relative to the insecure baseline"
  | Table3 -> "GH latency/throughput vs restoration cost, sorted by restore time"
  | Headline -> "suite-wide medians/percentiles vs the paper's headline claims"
  | Motivation -> "per-request cost of GH vs coldstart and CRIU-style isolation (motivation)"
  | Ablation_tracking -> "soft-dirty bits vs userfaultfd tracking sweep (ablation)"
  | Ablation_coalescing -> "restore-copy run coalescing on/off sweep (ablation)"
  | Policy_skip -> "rollback-skip policy vs caller diversity (extension of 4.4)"
  | Load_latency -> "open-loop latency vs offered load, BASE vs GH (extension)"
  | Snapshot_cost -> "one-time snapshotting cost across the whole catalog (5.5)"
  | Multi_tenant -> "container density under a shared node: BASE vs eager GH vs incremental GH"
  | Crash_recovery -> "restore as fault recovery: occupancy vs crash rate (extension)"
  | Fault_injection ->
      "seeded fault injection: availability/goodput/MTTR/p99 under fail-closed recovery"
  | Overload ->
      "overload sweep: goodput/shedding/deadline misses with protection on vs off"
  | Scrub_integrity ->
      "snapshot integrity: corruption rate x verification policy (hashing, scrubbing, dedup)"

(* Latency/throughput/breakdown sweeps over the catalog are shared between
   the experiments that need them — Table1 after Fig4 must not re-measure.
   The memo used to be a process-global mutable record, which (a) silently
   reused results across configs within one process and (b) raced if two
   callers ever filled a slot concurrently. It is now a value the caller
   threads through one batch of experiments; each slot is a tiny
   single-assignment cell guarded by a mutex + condition so concurrent
   callers block on the one computation instead of duplicating it. *)
type 'a slot = {
  m : Mutex.t;
  cond : Condition.t;
  mutable state : 'a slot_state;
}

and 'a slot_state = Empty | Running | Done of 'a

let slot () = { m = Mutex.create (); cond = Condition.create (); state = Empty }

(* Fill-once: the first caller computes (outside the lock — the sweeps take
   seconds), later callers wait on the condition. A raising computation
   resets the slot so the next caller retries rather than deadlocking. *)
let memo slot compute =
  let rec await () =
    match slot.state with
    | Done v ->
        Mutex.unlock slot.m;
        v
    | Running ->
        Condition.wait slot.cond slot.m;
        await ()
    | Empty -> (
        slot.state <- Running;
        Mutex.unlock slot.m;
        match compute () with
        | v ->
            Mutex.lock slot.m;
            slot.state <- Done v;
            Condition.broadcast slot.cond;
            Mutex.unlock slot.m;
            v
        | exception exn ->
            let bt = Printexc.get_raw_backtrace () in
            Mutex.lock slot.m;
            slot.state <- Empty;
            Condition.broadcast slot.cond;
            Mutex.unlock slot.m;
            Printexc.raise_with_backtrace exn bt)
  in
  Mutex.lock slot.m;
  await ()

type cache = {
  latency : Latency_exp.result list slot;
  tput : Throughput_exp.result list slot;
  breakdown_all : Breakdown_exp.result list slot;
  breakdown_rep : Breakdown_exp.result list slot;
}

(* The config parameter documents the contract — a cache holds results for
   exactly one configuration; reusing it under another cfg would serve that
   config stale sweeps. *)
let cache (_ : Config.t) =
  {
    latency = slot ();
    tput = slot ();
    breakdown_all = slot ();
    breakdown_rep = slot ();
  }

let latency_results cache cfg =
  memo cache.latency (fun () -> Latency_exp.run cfg Catalog.all)

let tput_results cache cfg =
  memo cache.tput (fun () -> Throughput_exp.run cfg Catalog.all)

let breakdown_all cache cfg =
  memo cache.breakdown_all (fun () -> Breakdown_exp.run cfg Catalog.all)

let breakdown_rep cache cfg =
  memo cache.breakdown_rep (fun () -> Breakdown_exp.run cfg Representative.entries)

(* Single-benchmark experiments pin their workload by catalog name; a
   lookup miss used to surface as [Option.get] (anonymous
   [Invalid_argument]) — fail naming the entry instead. *)
let catalog_entry name =
  match Catalog.find name with
  | Some entry -> entry
  | None -> failwith (Printf.sprintf "Experiments: no catalog entry named %S" name)

let run ?cache:c id cfg ppf =
  let cache = match c with Some c -> c | None -> cache cfg in
  let latency_results cfg = latency_results cache cfg in
  let tput_results cfg = tput_results cache cfg in
  let breakdown_all cfg = breakdown_all cache cfg in
  let breakdown_rep cfg = breakdown_rep cache cfg in
  match id with
  | Fig3_left ->
      Microbench_exp.print ppf
        ~title:"Fig 3 (left) — latency (ms) vs % pages dirtied, 100K mapped pages"
        ~x_label:"%dirtied" (Microbench_exp.run_left cfg)
  | Fig3_right ->
      Microbench_exp.print ppf
        ~title:"Fig 3 (right) — latency (ms) vs address-space size, 1K pages dirtied"
        ~x_label:"pages" (Microbench_exp.run_right cfg)
  | Fig4 -> Latency_exp.print_fig4 ppf (latency_results cfg)
  | Fig5 -> Throughput_exp.print_fig5 ppf (tput_results cfg)
  | Fig6 -> Breakdown_exp.print_fig6 ppf (Breakdown_exp.run cfg Catalog.wasm_ported)
  | Fig7 -> Scaling_exp.print_fig7 ppf (Scaling_exp.run cfg Representative.entries)
  | Fig8 -> Breakdown_exp.print_fig8 ppf (breakdown_rep cfg)
  | Table1 -> Tables.print_table1 ppf (latency_results cfg) (tput_results cfg)
  | Table2 -> Tables.print_table2 ppf (latency_results cfg) (tput_results cfg)
  | Table3 ->
      Tables.print_table3 ppf (latency_results cfg) (tput_results cfg) (breakdown_all cfg)
  | Headline ->
      let summary =
        Summary.compute (latency_results cfg) (tput_results cfg) (breakdown_all cfg)
      in
      Summary.print ppf summary
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
   the per-cell sweeps underneath (see {!Gh_sim.Domain_pool}) — and they
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
