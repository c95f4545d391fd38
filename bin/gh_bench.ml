(* gh-bench: regenerate the paper's tables and figures, inspect the
   benchmark catalog, or run a single benchmark under one isolation
   strategy. *)

open Cmdliner

let profile_conv =
  let parse = function
    | "quick" -> Ok Gh_harness.Config.quick
    | "default" -> Ok Gh_harness.Config.default
    | "full" -> Ok Gh_harness.Config.full
    | s -> Error (`Msg (Printf.sprintf "unknown profile %S (quick|default|full)" s))
  in
  let print ppf _ = Format.pp_print_string ppf "<profile>" in
  Arg.conv (parse, print)

let profile_arg =
  let doc = "Measurement profile: quick, default or full (paper-sized runs)." in
  Arg.(value & opt profile_conv Gh_harness.Config.default & info [ "profile"; "p" ] ~doc)

let seed_arg =
  let doc = "Root random seed (experiments are deterministic per seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

(* Converters reject bad input while the command line is parsed — before
   any work runs — with an error that names the offending value. *)

let int_at_least lo what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "invalid %s %S (expected an integer >= %d)" what s lo))
  in
  Arg.conv (parse, Format.pp_print_int)

let count_conv = int_at_least 1 "count"

let bench_conv =
  let parse name =
    match Gh_workloads.Catalog.find name with
    | Some entry -> Ok entry
    | None ->
        Error (`Msg (Printf.sprintf "benchmark %S not in catalog (see gh-bench catalog)" name))
  in
  let print ppf (e : Gh_workloads.Catalog.entry) =
    Format.pp_print_string ppf e.Gh_workloads.Catalog.display
  in
  Arg.conv (parse, print)

let strategy_conv =
  let parse s = Result.map_error (fun msg -> `Msg msg) (Gh_isolation.Registry.of_string s) in
  let print ppf id = Format.pp_print_string ppf (Gh_isolation.Registry.to_string id) in
  Arg.conv (parse, print)

(* An output file must land in an existing directory. *)
let out_file_conv =
  let parse path =
    let dir = Filename.dirname path in
    if Sys.file_exists dir && Sys.is_directory dir then Ok path
    else Error (`Msg (Printf.sprintf "cannot write %S: %S is not a directory" path dir))
  in
  Arg.conv (parse, Format.pp_print_string)

let bench_pos_arg =
  Arg.(
    required
    & pos 0 (some bench_conv) None
    & info [] ~docv:"BENCHMARK" ~doc:"Benchmark name, e.g. 'json (n)' or json.")

let strategy_arg =
  Arg.(
    value
    & opt strategy_conv Gh_isolation.Registry.Gh
    & info [ "strategy"; "s" ]
        ~doc:"Isolation strategy: base, gh, gh-nop, fork, faasm, coldstart, criu.")

let jobs_arg =
  let doc =
    "Fan experiment cells across $(docv) domains (0 = one per core). The report is \
     byte-identical for any value — each cell seeds its own RNG from the root seed and \
     the cell's identity, and results merge in input order."
  in
  Arg.(value & opt (int_at_least 0 "job count") 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let gc_stats_arg =
  let doc =
    "After the run, print GC allocation totals (all domains) and the main domain's \
     buffer-pool reuse counters to stderr; stdout is untouched, so reports stay \
     bit-identical."
  in
  Arg.(value & flag & info [ "gc-stats" ] ~doc)

let with_seed cfg seed = { cfg with Gh_harness.Config.seed = seed }

let with_jobs cfg jobs =
  let jobs = if jobs = 0 then Gh_sim.Domain_pool.recommended_jobs () else jobs in
  { cfg with Gh_harness.Config.jobs = jobs }

(* Gc.quick_stat already sums every domain, pool workers that have exited
   included, so the main domain's reading is the whole run's allocation.
   Stderr only — never the report. *)
let print_gc_stats () =
  let st = Gc.quick_stat () in
  let pool = Gh_sim.Buffer_pool.stats () in
  Printf.eprintf "gc-stats: minor_words=%.0f major_words=%.0f (all domains)\n"
    st.Gc.minor_words st.Gc.major_words;
  Printf.eprintf
    "gc-stats: buffer-pool hits=%d misses=%d releases=%d held_words=%d (main domain \
     only)\n%!"
    pool.Gh_sim.Buffer_pool.hits pool.Gh_sim.Buffer_pool.misses
    pool.Gh_sim.Buffer_pool.releases pool.Gh_sim.Buffer_pool.held_words

(* Every file gh-bench writes goes through here. The notice goes to
   stderr, so stdout carries the report and nothing else. *)
let write_file path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents);
  Printf.eprintf "wrote %s\n%!" path

(* A late I/O failure (a file that opened but could not be written) ends
   the command with an error naming the path, not an uncaught exception. *)
let guard_io k = try k () with Sys_error msg -> `Error (false, msg)

let export_observability ?trace_out ?metrics_out spans metrics =
  Option.iter (fun path -> write_file path (Gh_sim.Span.chrome_json spans)) trace_out;
  Option.iter
    (fun path -> write_file path (Format.asprintf "%a" Gh_sim.Metrics.render metrics))
    metrics_out

(* -- run -- *)

type selection = All | Extras | One of Gh_harness.Experiments.id

let experiment_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "all" -> Ok All
    | "extras" -> Ok Extras
    | _ -> (
        match Gh_harness.Experiments.of_string s with
        | Ok id -> Ok (One id)
        | Error msg -> Error (`Msg msg))
  in
  let print ppf = function
    | All -> Format.pp_print_string ppf "all"
    | Extras -> Format.pp_print_string ppf "extras"
    | One id -> Format.pp_print_string ppf (Gh_harness.Experiments.to_string id)
  in
  Arg.conv (parse, print)

let experiments_arg =
  let doc = "Experiments to run (see `gh-bench list'), or 'all' (the paper set) / 'extras' (ablations and extensions)." in
  Arg.(non_empty & pos_all experiment_conv [] & info [] ~docv:"EXPERIMENT" ~doc)

(* The -o directory is made while the command line is parsed, so an
   unusable path fails before any work. *)
let out_dir_conv =
  let parse dir =
    match Sys.is_directory dir with
    | true -> Ok dir
    | false -> Error (`Msg (Printf.sprintf "%S is not a directory" dir))
    | exception Sys_error _ -> (
        match Sys.mkdir dir 0o755 with
        | () -> Ok dir
        | exception Sys_error msg -> Error (`Msg ("cannot create output directory: " ^ msg)))
  in
  Arg.conv (parse, Format.pp_print_string)

let output_arg =
  let doc = "Write each experiment's report into $(docv)/<experiment>.txt instead of stdout." in
  Arg.(value & opt (some out_dir_conv) None & info [ "output"; "o" ] ~docv:"DIR" ~doc)

let trace_out_arg =
  let doc = "Also export a Chrome trace-event JSON of every request span to $(docv) (load it in Perfetto or chrome://tracing)." in
  Arg.(value & opt (some out_file_conv) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let metrics_out_arg =
  let doc = "Also export a text snapshot of the metrics registry to $(docv)." in
  Arg.(value & opt (some out_file_conv) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let series_out_arg =
  let doc =
    "Also collect windowed time series (counter deltas, gauge samples, latency quantile \
     sketches) and export them to $(docv): Prometheus text exposition, or the JSON \
     series document when $(docv) ends in .json."
  in
  Arg.(value & opt (some out_file_conv) None & info [ "series-out" ] ~docv:"FILE" ~doc)

let slo_out_arg =
  let doc =
    "Also evaluate the stock burn-rate SLOs (availability, p99 latency, cold-start \
     rate) at every front door and export their state and alert history as JSON to \
     $(docv)."
  in
  Arg.(value & opt (some out_file_conv) None & info [ "slo" ] ~docv:"FILE" ~doc)

let run_cmd =
  let run profile seed jobs gc_stats output trace_out metrics_out series_out slo_out selections
      =
    guard_io @@ fun () ->
    let cfg = with_jobs (with_seed profile seed) jobs in
    (* Observability sinks are attached only on request; either way the
       simulated runs are bit-identical (collectors only read clocks). *)
    let spans = Gh_sim.Span.create () in
    let metrics = Gh_sim.Metrics.create () in
    let series = Gh_sim.Timeseries.create metrics in
    let slos = Gh_sim.Slo.standard ~metrics () in
    let cfg =
      if trace_out = None && metrics_out = None then cfg
      else { cfg with Gh_harness.Config.spans = Some spans; metrics = Some metrics }
    in
    (* Series and SLOs roll the same registry the nodes count into, so
       attaching either also shares the registry. *)
    let cfg =
      if series_out = None then cfg
      else { cfg with Gh_harness.Config.series = Some series; metrics = Some metrics }
    in
    let cfg =
      if slo_out = None then cfg
      else { cfg with Gh_harness.Config.slos = slos; metrics = Some metrics }
    in
    (* An instrumented run is forced serial (the collectors are shared
       mutable state): say so, naming the flags responsible, whenever
       that overrides an explicit -j request. The flags, not the
       collectors: --series-out and --slo attach the registry too. *)
    (if
       cfg.Gh_harness.Config.jobs > 1
       && Gh_harness.Config.effective_jobs cfg < cfg.Gh_harness.Config.jobs
     then
       let reasons =
         List.filter_map
           (fun (passed, flag) -> if passed then Some flag else None)
           [
             (trace_out <> None, "--trace-out");
             (metrics_out <> None, "--metrics-out");
             (series_out <> None, "--series-out");
             (slo_out <> None, "--slo");
           ]
       in
       Printf.eprintf
         "gh-bench: warning: %s %s shared observability collectors; ignoring -j %d and \
          running serial\n\
          %!"
         (String.concat ", " reasons)
         (if List.length reasons = 1 then "attaches" else "attach")
         cfg.Gh_harness.Config.jobs);
    List.iter
      (fun selection ->
        let name, render =
          match selection with
          | All -> ("all", Gh_harness.Experiments.run_all cfg)
          | Extras -> ("extras", Gh_harness.Experiments.run_extras cfg)
          | One id ->
              let name = Gh_harness.Experiments.to_string id in
              ( name,
                fun ppf ->
                  Format.fprintf ppf "@.#### %s: %s@." name
                    (Gh_harness.Experiments.describe id);
                  Gh_harness.Experiments.run id cfg ppf )
        in
        match output with
        | None -> render Format.std_formatter
        | Some dir ->
            write_file (Filename.concat dir (name ^ ".txt")) (Format.asprintf "%t" render))
      selections;
    export_observability ?trace_out ?metrics_out spans metrics;
    Option.iter
      (fun path ->
        Gh_sim.Timeseries.flush series ~now:0;
        write_file path
          (if Filename.check_suffix path ".json" then
             Gh_sim.Json.to_string (Gh_sim.Timeseries.to_json series)
           else Format.asprintf "%a" Gh_sim.Timeseries.render_prom series))
      series_out;
    Option.iter
      (fun path ->
        write_file path
          (Gh_sim.Json.to_string (Gh_sim.Json.List (List.map Gh_sim.Slo.to_json slos))))
      slo_out;
    if gc_stats then print_gc_stats ();
    `Ok ()
  in
  let doc = "Regenerate one or more of the paper's tables/figures." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      ret
        (const run $ profile_arg $ seed_arg $ jobs_arg $ gc_stats_arg $ output_arg
       $ trace_out_arg $ metrics_out_arg $ series_out_arg $ slo_out_arg
       $ experiments_arg))

(* -- list -- *)

let list_cmd =
  let run () =
    print_endline "Paper tables/figures ('all'):";
    List.iter
      (fun id ->
        Printf.printf "  %-20s %s\n"
          (Gh_harness.Experiments.to_string id)
          (Gh_harness.Experiments.describe id))
      Gh_harness.Experiments.all;
    print_endline "Ablations and extensions ('extras'):";
    List.iter
      (fun id ->
        Printf.printf "  %-20s %s\n"
          (Gh_harness.Experiments.to_string id)
          (Gh_harness.Experiments.describe id))
      Gh_harness.Experiments.extras
  in
  let doc = "List the available experiments." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* -- catalog -- *)

let catalog_cmd =
  let run () =
    let open Gh_workloads in
    Printf.printf "%-18s %-14s %12s %10s %10s %8s\n" "benchmark" "suite" "base inv ms"
      "pages K" "restored K" "wasm";
    List.iter
      (fun (e : Catalog.entry) ->
        let r = e.Catalog.reference in
        Printf.printf "%-18s %-14s %12.1f %10.2f %10.2f %8s\n" e.Catalog.display
          (Catalog.suite_to_string e.Catalog.suite)
          r.Paper_ref.base_invoker_ms r.Paper_ref.pages_k r.Paper_ref.restored_k
          (if r.Paper_ref.faasm_invoker_ms <> None then "yes" else "no"))
      Catalog.all
  in
  let doc = "List the 58-benchmark catalog with its paper-reference parameters." in
  Cmd.v (Cmd.info "catalog" ~doc) Term.(const run $ const ())

(* -- invoke: run one benchmark under one strategy -- *)

let invoke_cmd =
  let n_arg = Arg.(value & opt count_conv 20 & info [ "n" ] ~doc:"Number of requests.") in
  let run profile seed entry id n =
    let cfg =
      {
        (with_seed profile seed) with
        Gh_harness.Config.latency_requests = n;
        latency_requests_medium = n;
        latency_requests_long = n;
      }
    in
    let strat = Gh_isolation.Registry.to_string id in
    match Gh_harness.Latency_exp.run_one cfg id entry with
    | None ->
        `Error
          ( false,
            Printf.sprintf "strategy %s does not support %s" strat
              entry.Gh_workloads.Catalog.display )
    | Some m ->
        let open Gh_sim in
        Format.printf "%s under %s (%d requests)@." entry.Gh_workloads.Catalog.display strat n;
        Format.printf "  invoker latency: %a (ms)@." Stats.pp_summary
          m.Gh_harness.Latency_exp.invoker;
        Format.printf "  e2e latency:     %a (ms)@." Stats.pp_summary
          m.Gh_harness.Latency_exp.e2e;
        `Ok ()
  in
  let doc = "Measure one benchmark under one isolation strategy." in
  Cmd.v (Cmd.info "invoke" ~doc)
    Term.(ret (const run $ profile_arg $ seed_arg $ bench_pos_arg $ strategy_arg $ n_arg))

(* -- trace: a container timeline for one benchmark -- *)

let trace_cmd =
  let n_arg = Arg.(value & opt count_conv 6 & info [ "n" ] ~doc:"Requests to trace.") in
  let run seed entry n strategy trace_out metrics_out =
    let spec = entry.Gh_workloads.Catalog.spec in
    let strat = Gh_isolation.Registry.to_string strategy in
    if not (Gh_isolation.Registry.supports strategy spec) then
      `Error
        ( false,
          Printf.sprintf "strategy %s does not support %s" strat
            entry.Gh_workloads.Catalog.display )
    else
      guard_io @@ fun () ->
      let trace = Gh_sim.Trace.create () in
      let spans = Gh_sim.Span.create () in
      let root = Gh_sim.Rng.create seed in
      let make_strategy salt i =
        match
          Gh_isolation.Registry.make strategy
            ~rng:(Gh_sim.Rng.named_split root (salt ^ string_of_int i))
            spec
        with
        | Ok s -> s
        | Error msg -> failwith msg
      in
      let deployment =
        Gh_faas.Openwhisk.deploy ~trace ~spans
          { Gh_faas.Openwhisk.default_config with Gh_faas.Openwhisk.n_cores = 1; seed }
          ~make_strategy:(make_strategy "platform")
      in
      let principals = Gh_harness.Sweep.principals in
      ignore
        (Gh_faas.Client.closed_loop deployment.Gh_faas.Openwhisk.engine
           deployment.Gh_faas.Openwhisk.controller ~n_requests:n
           ~think_ns:(Gh_sim.Time_ns.of_ms 20.0) ~principals
           ~input_kb:spec.Gh_faas.Function_model.input_kb);
      Format.printf "Container timeline for %s under %s (%d requests):@."
        entry.Gh_workloads.Catalog.display strat n;
      Gh_sim.Trace.render Format.std_formatter trace;
      (* A second run of the same workload through the multi-tenant node
         populates the metrics registry (per-function counters, latency
         histogram, node gauges) for the metrics snapshot. *)
      let node_engine = Gh_sim.Engine.create () in
      let node =
        (* Restore verification and idle-time scrubbing are on so the
           snapshot-integrity counters land in the metrics snapshot. *)
        Gh_faas.Node.create node_engine
          {
            Gh_faas.Node.default_config with
            Gh_faas.Node.total_cores = 1;
            scrub = Some Gh_faas.Container.default_scrub;
          }
          ~make_strategy:(fun _name sp ->
            match
              Gh_isolation.Registry.make strategy
                ~verify:Groundhog_core.Manager.Verify_full
                ~rng:(Gh_sim.Rng.named_split root "node")
                sp
            with
            | Ok s -> s
            | Error msg -> failwith msg)
      in
      Gh_faas.Node.register node ~name:spec.Gh_faas.Function_model.name spec;
      for i = 1 to n do
        Gh_sim.Engine.at node_engine
          ~time:((i - 1) * Gh_sim.Time_ns.of_ms 30.0)
          (fun () ->
            Gh_faas.Node.submit node ~name:spec.Gh_faas.Function_model.name
              (Gh_faas.Request.make ~id:i
                 ~principal:principals.((i - 1) mod Array.length principals)
                 ~input_kb:spec.Gh_faas.Function_model.input_kb ()))
      done;
      Gh_sim.Engine.run_all node_engine;
      (match Gh_sim.Span.check spans with
      | Ok () -> ()
      | Error msg -> Format.printf "@.SPAN INVARIANT VIOLATION: %s@." msg);
      Format.printf "@.%a@." Gh_sim.Critical_path.pp
        (Gh_sim.Critical_path.analyze spans);
      export_observability ?trace_out ?metrics_out spans
        (Gh_faas.Node.metrics node);
      `Ok ()
  in
  let doc =
    "Trace one benchmark: print the container timeline and the critical-path report; \
     optionally export request spans as Chrome trace-event JSON (--trace-out, \
     Perfetto-loadable) and a metrics snapshot (--metrics-out)."
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      ret
        (const run $ seed_arg $ bench_pos_arg $ n_arg $ strategy_arg $ trace_out_arg
       $ metrics_out_arg))

(* -- trace-validate: schema-check an exported Chrome trace -- *)

let trace_validate_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Trace JSON to validate.")
  in
  let run file =
    match In_channel.with_open_text file In_channel.input_all with
    | exception Sys_error msg -> `Error (false, msg)
    | content -> (
        match Gh_sim.Json.of_string content with
        | Error msg -> `Error (false, Printf.sprintf "%s: invalid JSON: %s" file msg)
        | Ok json -> (
            match Gh_sim.Span.validate_chrome json with
            | Error msg -> `Error (false, Printf.sprintf "%s: bad trace: %s" file msg)
            | Ok n ->
                Printf.printf "%s: valid Chrome trace, %d events\n" file n;
                `Ok ()))
  in
  let doc = "Validate an exported trace file against the Chrome trace-event schema." in
  Cmd.v (Cmd.info "trace-validate" ~doc) Term.(ret (const run $ file_arg))

(* -- compare: all strategies side by side on one benchmark -- *)

let compare_cmd =
  let n_arg = Arg.(value & opt count_conv 20 & info [ "n" ] ~doc:"Requests per strategy.") in
  let run profile seed entry n =
    let cfg =
      {
        (with_seed profile seed) with
        Gh_harness.Config.latency_requests = n;
        latency_requests_medium = n;
        latency_requests_long = max 3 (n / 4);
      }
    in
    Format.printf "%s — all isolation strategies (%d requests each)@."
      entry.Gh_workloads.Catalog.display n;
    Format.printf "%-10s %14s %14s %14s@." "strategy" "invoker ms" "e2e ms" "deferred ms";
    List.iter
      (fun id ->
        match Gh_harness.Latency_exp.run_one cfg id entry with
        | None -> Format.printf "%-10s %14s@." (Gh_isolation.Registry.to_string id) "unsupported"
        | Some m ->
            (* Mean deferred (off-path) work per request. *)
            let deferred =
              match
                Gh_isolation.Registry.make id
                  ~rng:(Gh_sim.Rng.create (seed + 1))
                  entry.Gh_workloads.Catalog.spec
              with
              | Error _ -> Float.nan
              | Ok strat ->
                  let total = ref 0 in
                  for i = 1 to 5 do
                    let req =
                      Gh_faas.Request.make ~id:i
                        ~principal:(Gh_faas.Principal.make ~id:1 ~name:"a")
                        ()
                    in
                    total := !total + (strat.Gh_faas.Strategy_intf.invoke req).Gh_faas.Strategy_intf.post_ns
                  done;
                  Gh_sim.Time_ns.to_ms (!total / 5)
            in
            Format.printf "%-10s %14.2f %14.1f %14.2f@."
              (Gh_isolation.Registry.to_string id)
              m.Gh_harness.Latency_exp.invoker.Gh_sim.Stats.mean
              m.Gh_harness.Latency_exp.e2e.Gh_sim.Stats.mean deferred)
      Gh_isolation.Registry.all;
    `Ok ()
  in
  let doc = "Compare every isolation strategy on one benchmark." in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(ret (const run $ profile_arg $ seed_arg $ bench_pos_arg $ n_arg))

(* -- security-check: who leaks? -- *)

let security_cmd =
  let n_arg =
    Arg.(value & opt count_conv 8 & info [ "n" ] ~doc:"Alternating requests per strategy.")
  in
  let run seed n =
    let alice = Gh_faas.Principal.make ~id:1 ~name:"alice" in
    let bob = Gh_faas.Principal.make ~id:2 ~name:"bob" in
    (* A buggy, residue-exfiltrating variant of a small catalog function. *)
    let base_spec =
      match Gh_workloads.Catalog.find "deltablue (p)" with
      | Some e -> e.Gh_workloads.Catalog.spec
      | None -> Gh_faas.Function_model.default_spec
    in
    let spec =
      {
        base_spec with
        Gh_faas.Function_model.buggy_residue_leak = true;
        read_pages = base_spec.Gh_faas.Function_model.mapped_pages;
      }
    in
    Format.printf
      "Buggy %s: does a residue-copying bug leak one caller's data to the next?@."
      spec.Gh_faas.Function_model.name;
    Format.printf "%-10s %-10s %s@." "strategy" "verdict" "foreign words observed";
    List.iter
      (fun id ->
        match Gh_isolation.Registry.make id ~rng:(Gh_sim.Rng.create seed) spec with
        | Error msg -> Format.printf "%-10s %-10s (%s)@." (Gh_isolation.Registry.to_string id) "n/a" msg
        | Ok strat ->
            let leaked = ref 0 in
            for i = 1 to n do
              let principal = if i mod 2 = 1 then alice else bob in
              let inv =
                strat.Gh_faas.Strategy_intf.invoke (Gh_faas.Request.make ~id:i ~principal ())
              in
              leaked :=
                !leaked
                + List.length
                    (List.filter
                       (fun w -> not (Gh_faas.Principal.owns_word principal w))
                       inv.Gh_faas.Strategy_intf.response.Gh_faas.Function_model.residue)
            done;
            Format.printf "%-10s %-10s %d@."
              (Gh_isolation.Registry.to_string id)
              (if !leaked > 0 then "LEAKS" else "isolated")
              !leaked)
      Gh_isolation.Registry.all;
    `Ok ()
  in
  let doc = "Demonstrate which isolation strategies stop a residue-leaking bug." in
  Cmd.v (Cmd.info "security-check" ~doc) Term.(ret (const run $ seed_arg $ n_arg))

(* -- the fail-closed sweeps: one subcommand per Gh_harness.Sweep descriptor -- *)

let sweep_cmd (Gh_harness.Sweep.Sweep s as sweep) =
  let bench_arg =
    Arg.(
      value
      & opt bench_conv (Option.get (Gh_workloads.Catalog.find "deltablue (p)"))
      & info [ "benchmark"; "b" ] ~docv:"BENCHMARK" ~doc:"Benchmark the sweep runs on.")
  in
  let smoke_arg = Arg.(value & flag & info [ "smoke" ] ~doc:s.smoke_doc) in
  let n_arg = Arg.(value & opt count_conv s.default_n & info [ "n" ] ~doc:s.n_doc) in
  let run profile seed entry smoke requests =
    match
      Gh_harness.Sweep.exec sweep (with_seed profile seed) ~smoke ~requests entry
        Format.std_formatter
    with
    | Ok () -> `Ok ()
    | Error msg -> `Error (false, msg)
  in
  Cmd.v (Cmd.info s.name ~doc:s.doc)
    Term.(ret (const run $ profile_arg $ seed_arg $ bench_arg $ smoke_arg $ n_arg))

let main =
  let doc = "Groundhog reproduction: regenerate the paper's evaluation." in
  Cmd.group (Cmd.info "gh-bench" ~version:"1.0.0" ~doc)
    ([
      run_cmd;
      list_cmd;
      catalog_cmd;
      invoke_cmd;
      compare_cmd;
      security_cmd;
      trace_cmd;
      trace_validate_cmd;
    ]
    @ List.map sweep_cmd Gh_harness.Experiments.sweeps)

let () = exit (Cmd.eval main)
