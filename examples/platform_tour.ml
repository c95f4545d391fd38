(* Tour of the simulated OpenWhisk deployment: a two-VM-style platform with
   a controller, an invoker hosting one Groundhog container per core, and
   closed-loop / saturating clients — the paper's two workloads (§5.1).

   Shows, for one catalog benchmark:
   - low-load latency: restoration hides between requests;
   - saturation throughput: restoration eats container cycles;
   - near-linear scaling from 1 to 4 cores.

   Run with: dune exec examples/platform_tour.exe *)

module Catalog = Gh_workloads.Catalog
module Registry = Gh_isolation.Registry
module Openwhisk = Gh_faas.Openwhisk
module Client = Gh_faas.Client
module Stats = Gh_sim.Stats
module Rng = Gh_sim.Rng

let benchmark = "deltablue (p)"

let principals =
  [|
    Gh_faas.Principal.make ~id:1 ~name:"alice";
    Gh_faas.Principal.make ~id:2 ~name:"bob";
    Gh_faas.Principal.make ~id:3 ~name:"carol";
  |]

let deploy ~strategy ~cores ~seed spec =
  let root = Rng.create seed in
  Openwhisk.deploy
    { Openwhisk.default_config with Openwhisk.n_cores = cores; seed }
    ~make_strategy:(fun i ->
      match Registry.make strategy ~rng:(Rng.named_split root (string_of_int i)) spec with
      | Ok s -> s
      | Error msg -> failwith msg)

let () =
  let entry =
    match Catalog.find benchmark with
    | Some e -> e
    | None -> failwith "benchmark missing from catalog"
  in
  let spec = entry.Catalog.spec in
  Format.printf "Benchmark: %s (%d mapped pages, %d dirtied per request)@." benchmark
    spec.Gh_faas.Function_model.mapped_pages spec.Gh_faas.Function_model.dirtied_pages;

  (* 1. Low load: one request at a time, think time between requests. *)
  Format.printf "@.== low load (closed loop, 1 container) ==@.";
  List.iter
    (fun strategy ->
      let d = deploy ~strategy ~cores:1 ~seed:7 spec in
      let r =
        Client.closed_loop d.Openwhisk.engine d.Openwhisk.controller ~n_requests:60
          ~think_ns:(Gh_sim.Time_ns.of_ms 30.0) ~principals
          ~input_kb:spec.Gh_faas.Function_model.input_kb
      in
      let inv = Stats.summarize r.Client.invoker_ms in
      let e2e = Stats.summarize r.Client.e2e_ms in
      Format.printf "%-7s invoker %6.2f ms (p95 %6.2f)   e2e %6.1f ms (p95 %6.1f)@."
        (Registry.to_string strategy) inv.Stats.mean inv.Stats.p95 e2e.Stats.mean
        e2e.Stats.p95)
    [ Registry.Base; Registry.Gh; Registry.Gh_nop; Registry.Fork ];
  Format.printf "(Groundhog's restoration hides in the gaps: latency ~= in-function overheads)@.";

  (* 2. Saturation: keep a big window in flight, 4 containers on 4 cores. *)
  Format.printf "@.== saturation (4 containers, windowed client) ==@.";
  let gh_saturated = ref None in
  List.iter
    (fun strategy ->
      let d = deploy ~strategy ~cores:4 ~seed:11 spec in
      let r =
        Client.saturate d.Openwhisk.engine d.Openwhisk.controller ~n_requests:400 ~window:192
          ~principals ~input_kb:spec.Gh_faas.Function_model.input_kb
      in
      if strategy = Registry.Gh then gh_saturated := Some r;
      Format.printf "%-7s sustained %7.1f req/s@." (Registry.to_string strategy)
        (Client.throughput_rps r))
    [ Registry.Base; Registry.Gh; Registry.Gh_nop; Registry.Fork ];
  Format.printf "(now restoration costs container cycles: GH < GH_NOP ~= BASE)@.";
  (match !gh_saturated with
  | Some r when Array.length r.Client.e2e_ms > 0 ->
      Format.printf "@.GH end-to-end latency under saturation (ms):@.%a@." Stats.pp_summary
        (Stats.summarize r.Client.e2e_ms)
  | _ -> ());

  (* 3. Scaling: each core hosts an independent container + manager. *)
  Format.printf "@.== GH throughput scaling with cores ==@.";
  let t1 = ref 0.0 in
  List.iter
    (fun cores ->
      let d = deploy ~strategy:Registry.Gh ~cores ~seed:13 spec in
      let r =
        Client.saturate d.Openwhisk.engine d.Openwhisk.controller ~n_requests:(150 * cores)
          ~window:(48 * cores) ~principals ~input_kb:spec.Gh_faas.Function_model.input_kb
      in
      let tput = Client.throughput_rps r in
      if cores = 1 then t1 := tput;
      Format.printf "%d core%s: %7.1f req/s (x%.2f)@." cores
        (if cores > 1 then "s" else " ")
        tput
        (tput /. Float.max 1e-9 !t1))
    [ 1; 2; 3; 4 ]
