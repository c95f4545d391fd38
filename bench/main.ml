(* The benchmark harness: host-side costs of this implementation.

   Bechamel micro-benchmarks: one [Test.make] per table/figure of the
   paper, each exercising the hot library operation that experiment leans
   on (snapshot capture, pagemap scan, restore, layout diff, fork, FAASM
   reset, strategy invocations, the DES). These measure {e this
   implementation's} real CPU cost per operation. The tables and figures
   themselves come from `gh-bench run all` and `gh-bench run extras`.

   Run with: dune exec bench/main.exe
   With no flag it runs the per-figure group, then the memory and engine
   groups. `--mem-only` / `--engine-only` run one of the latter two, each
   of which writes its record (BENCH_mem.json / BENCH_engine.json) into
   the current directory or into `--out-dir DIR`. Any other argument is
   rejected before anything runs. *)

open Bechamel
open Toolkit

module As = Gh_mem.Address_space
module Vma = Gh_mem.Vma
module Prot = Gh_mem.Prot
module Process = Gh_proc.Process
module Procfs = Gh_proc.Procfs
module Account = Gh_sim.Account
module Rng = Gh_sim.Rng
module Fm = Gh_faas.Function_model
module Intf = Gh_faas.Strategy_intf
module Registry = Gh_isolation.Registry
open Groundhog_core

let cost = Gh_kernel.Cost.default

let alice = Gh_faas.Principal.make ~id:1 ~name:"alice"
let bob = Gh_faas.Principal.make ~id:2 ~name:"bob"

(* A mid-size warmed process shared by the substrate benchmarks. *)
let bench_process () =
  let mem = As.create ~heap_pages:2048 ~cost () in
  let p = Process.create ~mem ~n_threads:2 () in
  let a = Account.create () in
  As.dirty_range mem a (As.heap mem) ~pos:0 ~len:1024 ~value:7;
  p

let bench_strategy id spec =
  match Registry.make id ~rng:(Rng.create 17) spec with
  | Ok s -> s
  | Error msg -> failwith msg

let small_python_spec =
  {
    Fm.default_spec with
    Fm.name = "bench-fn";
    lang = Gh_faas.Runtime.Python;
    exec_ns = 0;  (* measure the machinery, not the modelled compute *)
    mapped_pages = 4_000;
    dirtied_pages = 300;
    read_pages = 400;
  }

(* fig3: one full GH microbenchmark cycle (invoke + restore). *)
let test_fig3 =
  let spec = Gh_workloads.Microbench.spec ~mapped_pages:5_000 ~dirtied_pages:500 in
  let spec = { spec with Fm.exec_ns = 0 } in
  let strat = bench_strategy Registry.Gh spec in
  let i = ref 0 in
  Test.make ~name:"fig3/gh-microbench-cycle"
    (Staged.stage (fun () ->
         incr i;
         ignore (strat.Intf.invoke (Gh_faas.Request.make ~id:!i ~principal:alice ()))))

(* fig4: the latency experiment's unit of work — one GH invocation. *)
let test_fig4 =
  let strat = bench_strategy Registry.Gh small_python_spec in
  let i = ref 0 in
  Test.make ~name:"fig4/gh-invoke"
    (Staged.stage (fun () ->
         incr i;
         ignore (strat.Intf.invoke (Gh_faas.Request.make ~id:!i ~principal:bob ()))))

(* fig5: a slice of the saturation DES (submit + drain a window). *)
let test_fig5 =
  Test.make ~name:"fig5/des-saturation-slice"
    (Staged.stage (fun () ->
         let engine = Gh_sim.Engine.create () in
         let strat = bench_strategy Registry.Base small_python_spec in
         let invoker =
           Gh_faas.Invoker.create engine ~n_containers:2 ~dispatch_ns:1000
             ~make_strategy:(fun _ -> strat)
         in
         for i = 1 to 16 do
           Gh_faas.Invoker.submit invoker
             (Gh_faas.Request.make ~id:i ~principal:alice ())
             ~on_response:(fun _ _ -> ())
         done;
         Gh_sim.Engine.run_all engine))

(* fig6: the FAASM reset path. *)
let test_fig6 =
  let strat = bench_strategy Registry.Faasm small_python_spec in
  let i = ref 0 in
  Test.make ~name:"fig6/faasm-reset-cycle"
    (Staged.stage (fun () ->
         incr i;
         ignore (strat.Intf.invoke (Gh_faas.Request.make ~id:!i ~principal:alice ()))))

(* fig7: multi-container scaling — four independent managers restoring. *)
let test_fig7 =
  let strats = Array.init 4 (fun _ -> bench_strategy Registry.Gh small_python_spec) in
  let i = ref 0 in
  Test.make ~name:"fig7/four-containers-round"
    (Staged.stage (fun () ->
         incr i;
         Array.iter
           (fun s -> ignore (s.Intf.invoke (Gh_faas.Request.make ~id:!i ~principal:alice ())))
           strats))

(* fig8: the restore engine alone, on a dirtied process. *)
let test_fig8 =
  let p = bench_process () in
  let snap = Snapshot.capture_exn (Account.create ()) p in
  let scratch = Account.create () in
  Test.make ~name:"fig8/restore-run"
    (Staged.stage (fun () ->
         As.dirty_range p.Process.mem scratch (As.heap p.Process.mem) ~pos:0 ~len:256 ~value:3;
         ignore (Restore.run_exn scratch snap p)))

(* table1: snapshot capture (the one-time cost column). *)
let test_table1 =
  Test.make ~name:"table1/snapshot-capture"
    (Staged.stage (fun () ->
         let p = bench_process () in
         ignore (Snapshot.capture_exn (Account.create ()) p)))

(* table2: the soft-dirty pagemap scan (the per-request tracking cost). *)
let test_table2 =
  let p = bench_process () in
  let scratch = Account.create () in
  Test.make ~name:"table2/pagemap-scan"
    (Staged.stage (fun () -> ignore (Procfs.scan_soft_dirty scratch p)))

(* table3: layout diffing plus fork cloning (restore-vs-fork economics). *)
let test_table3 =
  let p = bench_process () in
  let snap = Snapshot.capture_exn (Account.create ()) p in
  let scratch = Account.create () in
  Test.make ~name:"table3/layout-diff+fork"
    (Staged.stage (fun () ->
         match Procfs.read_maps scratch p with
         | Error _ -> assert false
         | Ok maps ->
             ignore (Layout_diff.diff scratch ~cost snap maps);
             ignore (Process.fork p scratch)))

let bechamel_tests =
  [
    test_fig3;
    test_fig4;
    test_fig5;
    test_fig6;
    test_fig7;
    test_fig8;
    test_table1;
    test_table2;
    test_table3;
  ]

(* -- Memory fast paths: the word-batched bulk kernels vs the retained
   scalar reference ([As.Scalar]), on a warm heap of 4K / 64K / 1M pages.
   Each run touches the whole heap, so ns-per-run divided by the page
   count gives the per-page cost each kernel charges in wall-clock. -- *)

let mem_sizes = [ (4_096, "4K"); (65_536, "64K"); (1_048_576, "1M") ]

let warm_heap n =
  let mem = As.create ~heap_pages:n ~cost () in
  let a = Account.create () in
  let heap = As.heap mem in
  As.dirty_range mem a heap ~pos:0 ~len:n ~value:7;
  (mem, heap)

let mem_tests_for (n, size_name) =
  (* Separate spaces per impl so neither warms pages for the other. *)
  let m_bulk, h_bulk = warm_heap n in
  let m_scal, h_scal = warm_heap n in
  let scratch = Account.create () in
  let name op impl = Printf.sprintf "mem/%s-%s/%s" op size_name impl in
  [
    Test.make ~name:(name "dirty" "bulk")
      (Staged.stage (fun () ->
           As.dirty_range m_bulk scratch h_bulk ~pos:0 ~len:n ~value:3));
    Test.make ~name:(name "dirty" "scalar")
      (Staged.stage (fun () ->
           As.Scalar.dirty_range m_scal scratch h_scal ~pos:0 ~len:n ~value:3));
    Test.make ~name:(name "read" "bulk")
      (Staged.stage (fun () -> As.read_range m_bulk scratch h_bulk ~pos:0 ~len:n));
    Test.make ~name:(name "read" "scalar")
      (Staged.stage (fun () ->
           As.Scalar.read_range m_scal scratch h_scal ~pos:0 ~len:n));
  ]

let mem_tests = List.concat_map mem_tests_for mem_sizes

(* -- The traffic the function model actually puts on the memory model:
   per request a plan of a few hundred short ranges over the writable
   pool, and one brk excursion. A plan here is [plan_ranges] ranges of
   [plan_len] pages spread evenly over a warm [plan_pool]-page VMA,
   applied through the range kernels in one call ([kernel]) or as one
   [dirty_range]/[read_range] call per range ([per-range]). The brk cycle
   grows a [brk_heap]-page heap by [brk_step] pages and trims it back. -- *)

let plan_ranges = 600
let plan_len = 6
let plan_pool = 38_000
let brk_heap = 11_000
let brk_step = 16

let plan_mem, plan_vma = warm_heap plan_pool

let plan =
  Array.init (2 * plan_ranges) (fun k ->
      if k land 1 = 0 then k / 2 * (plan_pool / plan_ranges) else plan_len)

let plan_acct = Account.create ()

let plan_tests =
  [
    Test.make ~name:"mem/plan-dirty/per-range"
      (Staged.stage (fun () ->
           for r = 0 to plan_ranges - 1 do
             As.dirty_range plan_mem plan_acct plan_vma ~pos:plan.(2 * r) ~len:plan_len
               ~value:3
           done));
    Test.make ~name:"mem/plan-read/per-range"
      (Staged.stage (fun () ->
           for r = 0 to plan_ranges - 1 do
             As.read_range plan_mem plan_acct plan_vma ~pos:plan.(2 * r) ~len:plan_len
           done));
    Test.make ~name:"mem/plan-dirty/kernel"
      (Staged.stage (fun () ->
           As.dirty_ranges plan_mem plan_acct plan_vma plan ~first:0 ~stop:plan_ranges
             ~value:3));
    Test.make ~name:"mem/plan-read/kernel"
      (Staged.stage (fun () ->
           As.read_ranges plan_mem plan_acct plan_vma plan ~first:0 ~stop:plan_ranges));
  ]

let test_brk_cycle =
  let mem = As.create ~heap_pages:brk_heap ~cost () in
  let base = As.brk mem in
  Test.make ~name:"mem/brk-cycle"
    (Staged.stage (fun () ->
         As.set_brk mem (base + (brk_step * Vma.page_size));
         As.set_brk mem base))

(* Run one bechamel test and return its (name, ns-per-run) estimates. *)
let estimates test =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.4) ~kde:(Some 100) () in
  let results = Benchmark.all cfg instances test in
  Hashtbl.fold
    (fun name raw acc ->
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let est = Analyze.one ols Instance.monotonic_clock raw in
      match Analyze.OLS.estimates est with
      | Some [ t ] -> (name, t) :: acc
      | _ -> acc)
    results []

let time_str t =
  if t > 1e6 then Printf.sprintf "%.3f ms" (t /. 1e6)
  else if t > 1e3 then Printf.sprintf "%.3f us" (t /. 1e3)
  else Printf.sprintf "%.1f ns" t

let run_bechamel_list title tests =
  print_endline title;
  Printf.printf "%-32s %14s\n" "benchmark" "time/run";
  List.iter
    (fun test ->
      List.iter
        (fun (name, t) -> Printf.printf "%-32s %14s\n" name (time_str t))
        (estimates test))
    tests;
  print_newline ()

let run_bechamel () =
  run_bechamel_list "== Bechamel micro-benchmarks (one per table/figure) ==" bechamel_tests

(* Every BENCH_*.json record opens with the host it was taken on. *)
let record_header () =
  Printf.sprintf "{\n  \"unit\": \"ns/run unless noted\",\n  \"host_cores\": %d,\n  \"ocaml\": \"%s\",\n"
    (Gh_sim.Domain_pool.recommended_jobs ())
    Sys.ocaml_version

let write_record out_dir name buf =
  let path = Filename.concat out_dir name in
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  print_endline ("wrote " ^ path)

let run_mem_bench out_dir =
  print_endline "== Memory fast paths: bulk kernels vs scalar reference ==";
  Printf.printf "%-32s %14s\n" "benchmark" "time/run";
  let results =
    List.concat_map
      (fun test ->
        let es = estimates test in
        List.iter (fun (name, t) -> Printf.printf "%-32s %14s\n" name (time_str t)) es;
        es)
      (mem_tests @ plan_tests @ [ test_brk_cycle ])
  in
  let find name = List.assoc_opt name results in
  let fig3 =
    match estimates test_fig3 with (_, t) :: _ -> Some t | [] -> None
  in
  print_newline ();
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (record_header ());
  Buffer.add_string buf "  \"groups\": {\n";
  let n_sizes = List.length mem_sizes in
  List.iteri
    (fun si (n, size_name) ->
      Buffer.add_string buf (Printf.sprintf "    \"%s\": {\n      \"pages\": %d" size_name n);
      List.iter
        (fun op ->
          match
            ( find (Printf.sprintf "mem/%s-%s/bulk" op size_name),
              find (Printf.sprintf "mem/%s-%s/scalar" op size_name) )
          with
          | Some b, Some s ->
              Buffer.add_string buf
                (Printf.sprintf
                   ",\n      \"%s_bulk_ns\": %.1f,\n      \"%s_scalar_ns\": %.1f,\n      \"%s_speedup\": %.2f"
                   op b op s op (s /. b));
              Printf.printf "mem/%s-%s: %.2fx (scalar %s -> bulk %s)\n" op size_name
                (s /. b) (time_str s) (time_str b)
          | _ -> ())
        [ "dirty"; "read" ];
      Buffer.add_string buf
        (if si = n_sizes - 1 then "\n    }\n" else "\n    },\n"))
    mem_sizes;
  Buffer.add_string buf "  }";
  Buffer.add_string buf
    (Printf.sprintf ",\n  \"plan\": {\n    \"ranges\": %d,\n    \"pages_per_range\": %d,\n    \"pool_pages\": %d"
       plan_ranges plan_len plan_pool);
  List.iter
    (fun op ->
      match
        ( find (Printf.sprintf "mem/plan-%s/kernel" op),
          find (Printf.sprintf "mem/plan-%s/per-range" op) )
      with
      | Some k, Some r ->
          Buffer.add_string buf
            (Printf.sprintf
               ",\n    \"%s_kernel_ns\": %.1f,\n    \"%s_per_range_ns\": %.1f,\n    \"%s_speedup\": %.2f"
               op k op r op (r /. k));
          Printf.printf "mem/plan-%s: %.2fx (per-range %s -> kernel %s)\n" op (r /. k)
            (time_str r) (time_str k)
      | _ -> ())
    [ "dirty"; "read" ];
  Buffer.add_string buf "\n  }";
  (match find "mem/brk-cycle" with
  | Some t ->
      Buffer.add_string buf
        (Printf.sprintf
           ",\n  \"brk_cycle\": {\n    \"heap_pages\": %d,\n    \"step_pages\": %d,\n    \"ns\": %.1f\n  }"
           brk_heap brk_step t);
      Printf.printf "mem/brk-cycle: %s\n" (time_str t)
  | None -> ());
  (match fig3 with
  | Some t ->
      Buffer.add_string buf (Printf.sprintf ",\n  \"fig3_cycle_us\": %.3f" (t /. 1e3));
      Printf.printf "fig3/gh-microbench-cycle: %s\n" (time_str t)
  | None -> ());
  Buffer.add_string buf "\n}\n";
  write_record out_dir "BENCH_mem.json" buf

(* == Engine hot loop: event queue churn and an engine event storm == *)

module Engine = Gh_sim.Engine
module Event_queue = Gh_sim.Event_queue

(* 2k is the deepest queue any benchmark workload reaches (~2.5K pending in
   the slo sweep); 16k and 256k show how the heap scales past it. *)
let churn_sizes = [ (256, "256"); (2_048, "2k"); (16_384, "16k"); (262_144, "256k") ]

(* Sustained churn at a fixed pending count: pop the earliest event,
   schedule a replacement one average event-gap later — the steady state the
   DES hot loop lives in. Replacement gaps scale with the population (a
   bigger sweep spreads its pending events over a wider horizon), and each
   run batches [churn_ops] pairs so per-sample harness noise amortizes. *)
let churn_ops = 64

let engine_churn_test (p, size_name) =
  let gap tick = 1 + (tick * 7919 mod (48 * p)) in
  let q = Event_queue.create ~dummy:() in
  for i = 1 to p do
    Event_queue.push q ~key:(i * 24) ()
  done;
  let tick = ref 0 in
  Test.make ~name:(Printf.sprintf "engine/churn-%s" size_name)
    (Staged.stage (fun () ->
         for _ = 1 to churn_ops do
           match Event_queue.pop q with
           | Some (k, ()) ->
               incr tick;
               Event_queue.push q ~key:(k + gap !tick) ()
           | None -> assert false
         done))

(* One full engine event storm: dispatch 20k chained events over a pending
   population of 1k, engine creation included (it is ~nothing). *)
let storm_events = 20_000
let storm_pending = 1_000

let test_engine_storm =
  Test.make ~name:"engine/storm-20k"
    (Staged.stage (fun () ->
         let e = Engine.create () in
         let fired = ref 0 in
         let rec cb () =
           incr fired;
           if !fired + storm_pending <= storm_events then
             Engine.schedule e ~after:(1 + (!fired land 7)) cb
         in
         for i = 1 to storm_pending do
           Engine.at e ~time:i cb
         done;
         Engine.run_all e))

let run_engine_bench out_dir =
  print_endline "== Engine hot loop: event queue churn and an engine event storm ==";
  Printf.printf "%-32s %14s\n" "benchmark" "time/run";
  let results =
    List.concat_map
      (fun test ->
        let es = estimates test in
        List.iter (fun (name, t) -> Printf.printf "%-32s %14s\n" name (time_str t)) es;
        es)
      (List.map engine_churn_test churn_sizes @ [ test_engine_storm ])
  in
  let find name = List.assoc_opt name results in
  print_newline ();
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (record_header ());
  Buffer.add_string buf "  \"churn_ns_per_op\": {";
  let churn =
    List.filter_map
      (fun (p, size_name) ->
        (* per-run figures cover [churn_ops] pop+push pairs *)
        Option.map
          (fun t -> (p, size_name, t /. float_of_int churn_ops))
          (find ("engine/churn-" ^ size_name)))
      churn_sizes
  in
  Buffer.add_string buf
    (String.concat ","
       (List.map (fun (p, _, ns) -> Printf.sprintf "\n    \"%d\": %.1f" p ns) churn));
  List.iter
    (fun (_, size_name, ns) -> Printf.printf "engine/churn-%s: %.1f ns per pop+push\n" size_name ns)
    churn;
  Buffer.add_string buf "\n  }";
  (match find "engine/storm-20k" with
  | Some t ->
      Buffer.add_string buf
        (Printf.sprintf ",\n  \"storm_ns_per_event\": %.1f" (t /. float_of_int storm_events));
      Printf.printf "engine/storm: %.1f ns/event\n" (t /. float_of_int storm_events)
  | None -> ());
  Buffer.add_string buf "\n}\n";
  write_record out_dir "BENCH_engine.json" buf

let flags = [ "--mem-only"; "--engine-only" ]

(* The flags given, and the directory for the BENCH_*.json records. A typo
   must not fall through to the whole multi-minute bench. *)
let parse_args args =
  let fail msg =
    prerr_endline ("bench/main.exe: " ^ msg);
    prerr_endline ("usage: bench/main.exe [" ^ String.concat " | " flags ^ "] [--out-dir DIR]");
    exit 2
  in
  let rec go given out_dir = function
    | [] -> (given, out_dir)
    | [ "--out-dir" ] -> fail "--out-dir needs a directory"
    | "--out-dir" :: dir :: rest ->
        if not (Sys.file_exists dir && Sys.is_directory dir) then
          fail (Printf.sprintf "--out-dir %s: no such directory" dir);
        go given dir rest
    | a :: rest when List.mem a flags -> go (a :: given) out_dir rest
    | a :: _ -> fail (Printf.sprintf "unknown argument '%s'" a)
  in
  go [] Filename.current_dir_name args

let () =
  let given, out_dir = parse_args (List.tl (Array.to_list Sys.argv)) in
  let has flag = List.mem flag given in
  if has "--mem-only" then run_mem_bench out_dir
  else if has "--engine-only" then run_engine_bench out_dir
  else begin
    run_bechamel ();
    run_mem_bench out_dir;
    run_engine_bench out_dir
  end
