(* The traced twin of the figures workloads: the cells of every sweep
   behind [Experiments.run_all], driven through the same public calls the
   harness makes (Registry.make, the Strategy_intf.t closures,
   Openwhisk.deploy, Client.saturate, Domain_pool.parallel_map), with
   each call wrapped in a {!Prof} span. The results are rendered by the
   harness's own print functions, so the twin's report must equal the
   untraced report byte for byte — that comparison is what keeps this
   copy of the cell code honest. *)

open Gh_harness
module Registry = Gh_isolation.Registry
module Catalog = Gh_workloads.Catalog
module Fm = Gh_faas.Function_model
module Intf = Gh_faas.Strategy_intf
module Rng = Gh_sim.Rng
module Stats = Gh_sim.Stats
module Time_ns = Gh_sim.Time_ns
module Breakdown = Groundhog_core.Breakdown
module Manager = Groundhog_core.Manager

let principal id name = Gh_faas.Principal.make ~id ~name
let two = [| principal 1 "alice"; principal 2 "bob" |]
let three = [| principal 1 "alice"; principal 2 "bob"; principal 3 "carol" |]

let make strategy ?verify ~rng spec =
  match Prof.init (fun () -> Registry.make strategy ?verify ~rng spec) with
  | Ok s -> Ok (Prof.wrap_strategy strategy s)
  | Error _ as e -> e

(* Fig. 3: Microbench_exp.measure / run_points. *)
let ubench_measure cfg strategy spec =
  if not (Registry.supports strategy spec) then None
  else begin
    let seed =
      cfg.Config.seed lxor Hashtbl.hash ("ubench", spec.Fm.name, Registry.to_string strategy)
    in
    let rng = Rng.create seed in
    match make strategy ~verify:Manager.Verify_full ~rng spec with
    | Error _ -> None
    | Ok strat ->
        let n = cfg.Config.microbench_requests in
        let discard = 2 in
        let low = ref 0.0 and high = ref 0.0 in
        for i = -discard to n - 1 do
          let req =
            Gh_faas.Request.make ~id:(i + discard + 1) ~principal:two.((i + discard) mod 2)
              ~input_kb:spec.Fm.input_kb ()
          in
          let inv = strat.Intf.invoke req in
          if i >= 0 then begin
            low := !low +. Time_ns.to_ms inv.Intf.on_path_ns;
            high := !high +. Time_ns.to_ms (inv.Intf.on_path_ns + inv.Intf.post_ns)
          end
        done;
        let n = float_of_int n in
        Some (!low /. n, !high /. n)
  end

let ubench_points cfg specs =
  let strategies = Microbench_exp.strategies in
  let n_s = List.length strategies in
  let cells =
    List.concat_map (fun (_, spec) -> List.map (fun s -> (spec, s)) strategies) specs
  in
  let arr =
    Array.of_list
      (Prof.pmap ~jobs:(Config.effective_jobs cfg)
         (fun (spec, s) -> ubench_measure cfg s spec)
         cells)
  in
  List.mapi
    (fun i (x, _) ->
      let low = ref [] and high = ref [] in
      List.iteri
        (fun j strategy ->
          match arr.((i * n_s) + j) with
          | Some (l, h) ->
              low := (strategy, l) :: !low;
              high := (strategy, h) :: !high
          | None -> ())
        strategies;
      { Microbench_exp.x; low_ms = List.rev !low; high_ms = List.rev !high })
    specs

let ubench_left cfg =
  ubench_points cfg
    (List.map
       (fun fraction -> (100.0 *. fraction, Gh_workloads.Microbench.fig3_left_spec fraction))
       Gh_workloads.Microbench.fig3_left_fractions)

let ubench_right cfg =
  ubench_points cfg
    (List.map
       (fun pages -> (float_of_int pages, Gh_workloads.Microbench.fig3_right_spec pages))
       Gh_workloads.Microbench.fig3_right_sizes)

(* Fig. 4 / Table 1: Latency_exp.run_one / run. *)
let latency_one cfg strategy (entry : Catalog.entry) =
  let seed =
    cfg.Config.seed lxor Hashtbl.hash (entry.Catalog.display, Registry.to_string strategy)
  in
  let rng = Rng.create seed in
  if not (Registry.supports strategy entry.Catalog.spec) then None
  else begin
    match
      make strategy ~verify:Manager.Verify_full ~rng:(Rng.split rng) entry.Catalog.spec
    with
    | Error _ -> None
    | Ok strat ->
        let overhead_rng = Rng.split rng in
        let n = Config.latency_requests_for cfg entry.Catalog.spec in
        let discard = 2 in
        let invoker_ms = Array.make n 0.0 in
        let e2e_ms = Array.make n 0.0 in
        for i = -discard to n - 1 do
          let principal = two.((i + discard) mod Array.length two) in
          let req =
            Gh_faas.Request.make ~id:(i + discard + 1) ~principal
              ~input_kb:entry.Catalog.spec.Fm.input_kb ()
          in
          let inv = strat.Intf.invoke req in
          if i >= 0 then begin
            let platform =
              Gh_faas.Controller.sample_overhead Gh_faas.Controller.default_overhead
                overhead_rng
            in
            invoker_ms.(i) <- Time_ns.to_ms inv.Intf.on_path_ns;
            e2e_ms.(i) <- Time_ns.to_ms (inv.Intf.on_path_ns + platform)
          end
        done;
        Some
          {
            Latency_exp.strategy;
            invoker = Stats.summarize invoker_ms;
            e2e = Stats.summarize e2e_ms;
          }
  end

(* Regroup a flat (entry x strategy) cell array by input position, as the
   harness sweeps do. *)
let regroup entries strategies arr =
  let n_s = List.length strategies in
  List.mapi
    (fun i entry -> (entry, List.filter_map Fun.id (List.init n_s (fun j -> arr.((i * n_s) + j)))))
    entries

let grid cfg strategies entries f =
  let cells =
    List.concat_map (fun entry -> List.map (fun s -> (entry, s)) strategies) entries
  in
  Array.of_list
    (Prof.pmap ~jobs:(Config.effective_jobs cfg) (fun (entry, s) -> f s entry) cells)

let latency_strategies = Registry.[ Base; Gh; Gh_nop; Fork; Faasm ]

let latency cfg entries =
  grid cfg latency_strategies entries (latency_one cfg)
  |> regroup entries latency_strategies
  |> List.map (fun (entry, measurements) -> { Latency_exp.entry; measurements })

(* Fig. 5 / Fig. 7 / Table 1: Throughput_exp.run_one / run. *)
let tput_one ?n_containers cfg strategy (entry : Catalog.entry) =
  let n_containers = Option.value n_containers ~default:cfg.Config.n_containers in
  let seed =
    cfg.Config.seed
    lxor Hashtbl.hash (entry.Catalog.display, Registry.to_string strategy, n_containers)
  in
  let root = Rng.create seed in
  if not (Registry.supports strategy entry.Catalog.spec) then None
  else begin
    let make_strategy i =
      match
        make strategy ~verify:Manager.Verify_full
          ~rng:(Rng.named_split root (string_of_int i))
          entry.Catalog.spec
      with
      | Ok s -> s
      | Error msg -> failwith msg
    in
    let deployment =
      Prof.platform (fun () ->
          Gh_faas.Openwhisk.deploy ?spans:cfg.Config.spans ?series:cfg.Config.series
            ~slos:cfg.Config.slos ~scrub:Gh_faas.Container.default_scrub
            {
              Gh_faas.Openwhisk.n_cores = n_containers;
              dispatch_ns = cfg.Config.dispatch_ns;
              overhead = Gh_faas.Controller.default_overhead;
              seed;
            }
            ~make_strategy)
    in
    let n_requests = Config.tput_requests_for cfg entry.Catalog.spec * n_containers in
    Prof.count_requests n_requests;
    let results =
      Prof.platform (fun () ->
          Gh_faas.Client.saturate deployment.Gh_faas.Openwhisk.engine
            deployment.Gh_faas.Openwhisk.controller ~n_requests
            ~window:(max 16 (48 * n_containers))
            ~principals:three ~input_kb:entry.Catalog.spec.Fm.input_kb)
    in
    let tput = Gh_faas.Client.throughput_rps results in
    let mean_cycle_ms =
      if tput <= 0.0 then Float.nan else 1000.0 *. float_of_int n_containers /. tput
    in
    Some { Throughput_exp.strategy; tput_rps = tput; mean_cycle_ms }
  end

let tput_strategies = Registry.[ Base; Gh; Gh_nop; Fork ]

let tput cfg entries =
  grid cfg tput_strategies entries (fun s e -> tput_one cfg s e)
  |> regroup entries tput_strategies
  |> List.map (fun (entry, measurements) -> { Throughput_exp.entry; measurements })

(* Fig. 7: Scaling_exp.run. *)
let scaling ?(max_cores = 4) ?(repeats = 3) cfg entries =
  let cells =
    List.concat_map
      (fun entry ->
        List.concat_map
          (fun cores -> List.init repeats (fun r -> (entry, cores, r)))
          (List.init max_cores (fun i -> i + 1)))
      entries
  in
  let samples =
    Array.of_list
      (Prof.pmap ~jobs:(Config.effective_jobs cfg)
         (fun (entry, cores, r) ->
           let cfg = { cfg with Config.seed = cfg.Config.seed + (1000 * r) } in
           match tput_one ~n_containers:cores cfg Registry.Gh entry with
           | Some m -> Some m.Throughput_exp.tput_rps
           | None -> None)
         cells)
  in
  List.mapi
    (fun i entry ->
      let points =
        List.filter_map
          (fun cores ->
            let base = ((i * max_cores) + (cores - 1)) * repeats in
            match List.filter_map (fun r -> samples.(base + r)) (List.init repeats Fun.id) with
            | [] -> None
            | samples ->
                let a = Array.of_list samples in
                Some (cores, Stats.mean a, Stats.std a))
          (List.init max_cores (fun i -> i + 1))
      in
      {
        Scaling_exp.entry;
        by_cores = List.map (fun (c, m, _) -> (c, m)) points;
        std_by_cores = List.map (fun (c, _, sd) -> (c, sd)) points;
      })
    entries

(* Fig. 6 / Fig. 8 / Table 3: Breakdown_exp.run_one / run. *)
let collect_breakdowns strat n input_kb =
  let acc = ref Breakdown.zero in
  let count = ref 0 in
  for i = 0 to n - 1 do
    let req = Gh_faas.Request.make ~id:(i + 1) ~principal:two.(i mod 2) ~input_kb () in
    let inv = strat.Intf.invoke req in
    match inv.Intf.breakdown with
    | Some b ->
        acc := Breakdown.add !acc b;
        incr count
    | None -> ()
  done;
  if !count = 0 then Breakdown.zero else Breakdown.scale !acc (1.0 /. float_of_int !count)

let breakdown_one cfg (entry : Catalog.entry) =
  let seed = cfg.Config.seed lxor Hashtbl.hash ("breakdown", entry.Catalog.display) in
  let rng = Rng.create seed in
  let n =
    max 3 (min (Config.latency_requests_for cfg entry.Catalog.spec) cfg.Config.breakdown_requests)
  in
  let strategy, state =
    Prof.init (fun () ->
        Gh_isolation.Gh.make_with_state ~verify:Manager.Verify_full ~rng:(Rng.split rng)
          entry.Catalog.spec)
  in
  let strategy = Prof.wrap_strategy Registry.Gh strategy in
  let mean = collect_breakdowns strategy n entry.Catalog.spec.Fm.input_kb in
  let snapshot_ms, snapshot_pages =
    match Manager.snapshot (Gh_isolation.Gh.manager state) with
    | Some s ->
        ( Time_ns.to_ms s.Groundhog_core.Snapshot.capture_ns,
          s.Groundhog_core.Snapshot.present_pages )
    | None -> (Float.nan, 0)
  in
  let total_pages =
    Gh_mem.Address_space.total_pages
      (Fm.proc (Gh_isolation.Gh.instance state)).Gh_proc.Process.mem
  in
  let faasm_reset_ms =
    if not (Registry.supports Registry.Faasm entry.Catalog.spec) then None
    else begin
      match make Registry.Faasm ~rng:(Rng.split rng) entry.Catalog.spec with
      | Error _ -> None
      | Ok faasm ->
          let b = collect_breakdowns faasm (max 3 (n / 2)) entry.Catalog.spec.Fm.input_kb in
          Some (Time_ns.to_ms b.Breakdown.total_ns)
    end
  in
  {
    Breakdown_exp.entry;
    mean;
    restore_ms = Time_ns.to_ms mean.Breakdown.total_ns;
    snapshot_ms;
    snapshot_pages;
    total_pages;
    faasm_reset_ms;
  }

let breakdown cfg entries =
  Prof.pmap ~jobs:(Config.effective_jobs cfg) (breakdown_one cfg) entries

(* The sections of [Experiments.run_all], each sweep under its harness
   span and each print call under a render span. Sweeps shared between
   sections are computed once, as the harness cache does. *)
let section cfg =
  let latency = lazy (Prof.sweep "latency" (fun () -> latency cfg Catalog.all)) in
  let tput = lazy (Prof.sweep "tput" (fun () -> tput cfg Catalog.all)) in
  let bd_all = lazy (Prof.sweep "breakdown" (fun () -> breakdown cfg Catalog.all)) in
  let bd_rep =
    lazy (Prof.sweep "breakdown" (fun () -> breakdown cfg Gh_workloads.Representative.entries))
  in
  fun id ppf ->
    let render f = Prof.render (fun () -> f ppf) in
    match (id : Experiments.id) with
    | Fig3_left ->
        let points = Prof.sweep "microbench" (fun () -> ubench_left cfg) in
        render (fun ppf ->
            Microbench_exp.print ppf
              ~title:"Fig 3 (left) — latency (ms) vs % pages dirtied, 100K mapped pages"
              ~x_label:"%dirtied" points)
    | Fig3_right ->
        let points = Prof.sweep "microbench" (fun () -> ubench_right cfg) in
        render (fun ppf ->
            Microbench_exp.print ppf
              ~title:"Fig 3 (right) — latency (ms) vs address-space size, 1K pages dirtied"
              ~x_label:"pages" points)
    | Fig4 ->
        let l = Lazy.force latency in
        render (fun ppf -> Latency_exp.print_fig4 ppf l)
    | Fig5 ->
        let t = Lazy.force tput in
        render (fun ppf -> Throughput_exp.print_fig5 ppf t)
    | Fig6 ->
        let b = Prof.sweep "breakdown" (fun () -> breakdown cfg Catalog.wasm_ported) in
        render (fun ppf -> Breakdown_exp.print_fig6 ppf b)
    | Fig7 ->
        let s =
          Prof.sweep "scaling" (fun () -> scaling cfg Gh_workloads.Representative.entries)
        in
        render (fun ppf -> Scaling_exp.print_fig7 ppf s)
    | Fig8 ->
        let b = Lazy.force bd_rep in
        render (fun ppf -> Breakdown_exp.print_fig8 ppf b)
    | Table1 ->
        let l = Lazy.force latency and t = Lazy.force tput in
        render (fun ppf -> Tables.print_table1 ppf l t)
    | Table2 ->
        let l = Lazy.force latency and t = Lazy.force tput in
        render (fun ppf -> Tables.print_table2 ppf l t)
    | Table3 ->
        let b = Lazy.force bd_all and l = Lazy.force latency and t = Lazy.force tput in
        render (fun ppf -> Tables.print_table3 ppf l t b)
    | Headline ->
        let b = Lazy.force bd_all and l = Lazy.force latency and t = Lazy.force tput in
        render (fun ppf -> Summary.print ppf (Summary.compute l t b))
    | _ -> invalid_arg "Twin.section: not a paper experiment"
