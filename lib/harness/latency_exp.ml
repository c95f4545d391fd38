module Rng = Gh_sim.Rng
module Stats = Gh_sim.Stats
module Time_ns = Gh_sim.Time_ns
module Registry = Gh_isolation.Registry
module Catalog = Gh_workloads.Catalog
module Fm = Gh_faas.Function_model
module Intf = Gh_faas.Strategy_intf

type measurement = {
  strategy : Registry.id;
  invoker : Stats.summary;
  e2e : Stats.summary;
}

type result = {
  entry : Catalog.entry;
  measurements : measurement list;
}

let default_strategies =
  [ Registry.Base; Registry.Gh; Registry.Gh_nop; Registry.Fork; Registry.Faasm ]

let run_one cfg strategy (entry : Catalog.entry) =
  let seed = cfg.Config.seed lxor Hashtbl.hash (entry.Catalog.display, Registry.to_string strategy) in
  let rng = Rng.create seed in
  if not (Registry.supports strategy entry.Catalog.spec) then None
  else begin
    (* Full restore-time verification is on for the measured runs: the
       audit reads memory only and tallies its modelled cost off the
       timeline, so the figures are bit-identical to unverified runs —
       integrity checking is free in simulated time by construction. *)
    match
      Registry.make strategy ~verify:Groundhog_core.Manager.Verify_full ~rng:(Rng.split rng)
        entry.Catalog.spec
    with
    | Error _ -> None
    | Ok strat ->
      let overhead_rng = Rng.split rng in
      let n = Config.latency_requests_for cfg entry.Catalog.spec in
      (* The first requests after container start are warm-up (one-time
         re-arm fault storms); the paper's measurements exclude them. *)
      let discard = 2 in
      let invoker_ms = Array.make n 0.0 in
      let e2e_ms = Array.make n 0.0 in
      for i = -discard to n - 1 do
        let principal = Sweep.principals.((i + discard) mod 2) in
        let req =
          Gh_faas.Request.make ~id:(i + discard + 1) ~principal
            ~input_kb:entry.Catalog.spec.Fm.input_kb ()
        in
        let inv = strat.Intf.invoke req in
        if i >= 0 then begin
          let platform = Gh_faas.Controller.sample_overhead Gh_faas.Controller.default_overhead overhead_rng in
          invoker_ms.(i) <- Time_ns.to_ms inv.Intf.on_path_ns;
          e2e_ms.(i) <- Time_ns.to_ms (inv.Intf.on_path_ns + platform)
        end
      done;
      Some { strategy; invoker = Stats.summarize invoker_ms; e2e = Stats.summarize e2e_ms }
  end

let run ?(strategies = default_strategies) cfg entries =
  Sweep.grid cfg entries strategies (fun e s -> run_one cfg s e)
  |> List.map (fun (entry, measurements) -> { entry; measurements })

let find result strategy =
  List.find_opt (fun m -> m.strategy = strategy) result.measurements

let relative_to_base result =
  match find result Registry.Base with
  | None -> []
  | Some base ->
      List.filter_map
        (fun m ->
          if m.strategy = Registry.Base then None
          else
            Some
              ( m.strategy,
                m.e2e.Stats.mean /. base.e2e.Stats.mean,
                m.invoker.Stats.mean /. base.invoker.Stats.mean ))
        result.measurements

let print_part ppf ~title ~pick results =
  let columns = [ Registry.Gh; Registry.Gh_nop; Registry.Fork; Registry.Faasm ] in
  let header =
    "benchmark" :: List.map (fun s -> String.uppercase_ascii (Registry.to_string s)) columns
  in
  let rows =
    List.map
      (fun r ->
        let rel = relative_to_base r in
        r.entry.Catalog.display
        :: List.map
             (fun s ->
               match List.find_opt (fun (id, _, _) -> id = s) rel with
               | Some (_, e2e, inv) -> Report.fmt_ratio (pick e2e inv)
               | None -> "-")
             columns)
      results
  in
  Report.table ppf ~title ~header rows

let print_fig4 ppf results =
  let suites =
    [
      ("(a) e2e latency, pyperformance (p)", Catalog.Pyperformance, `E2e);
      ("(b) invoker latency, pyperformance (p)", Catalog.Pyperformance, `Invoker);
      ("(c) e2e latency, PolyBench (c)", Catalog.Polybench, `E2e);
      ("(d) invoker latency, PolyBench (c)", Catalog.Polybench, `Invoker);
      ("(e) e2e latency, FaaSProfiler (p)+(n)", Catalog.Faasprofiler, `E2e);
      ("(f) invoker latency, FaaSProfiler (p)+(n)", Catalog.Faasprofiler, `Invoker);
    ]
  in
  List.iter
    (fun (title, suite, which) ->
      let subset = List.filter (fun r -> r.entry.Catalog.suite = suite) results in
      let pick e2e inv = match which with `E2e -> e2e | `Invoker -> inv in
      print_part ppf ~title:(Printf.sprintf "Fig 4 %s — relative to BASE (lower is better)" title)
        ~pick subset)
    suites
