module Rng = Gh_sim.Rng
module Stats = Gh_sim.Stats
module Registry = Gh_isolation.Registry
module Catalog = Gh_workloads.Catalog
module Fm = Gh_faas.Function_model

type point = {
  rate_rps : float;
  base_mean_ms : float;
  base_p95_ms : float;
  gh_mean_ms : float;
  gh_p95_ms : float;
}

let measure cfg strategy (entry : Catalog.entry) ~rate_rps ~n_requests =
  let seed =
    cfg.Config.seed
    lxor Hashtbl.hash ("load", entry.Catalog.display, Registry.to_string strategy, rate_rps)
  in
  let root = Rng.create seed in
  let deployment =
    Gh_faas.Openwhisk.deploy ?spans:cfg.Config.spans ?series:cfg.Config.series
      ~slos:cfg.Config.slos
      {
        Gh_faas.Openwhisk.n_cores = 1;
        dispatch_ns = cfg.Config.dispatch_ns;
        overhead = Gh_faas.Controller.default_overhead;
        seed;
      }
      ~make_strategy:(fun i ->
        match
          Registry.make strategy ~rng:(Rng.named_split root (string_of_int i)) entry.Catalog.spec
        with
        | Ok s -> s
        | Error msg -> failwith msg)
  in
  let results =
    Gh_faas.Client.open_loop deployment.Gh_faas.Openwhisk.engine
      deployment.Gh_faas.Openwhisk.controller ~rng:(Rng.split root) ~rate_rps
      ~n_requests ~principals:Sweep.principals ~input_kb:entry.Catalog.spec.Fm.input_kb
  in
  Stats.summarize results.Gh_faas.Client.e2e_ms

let utilizations = [ 0.2; 0.4; 0.6; 0.8; 0.95; 1.1 ]

(* One container, so the GH service rate (incl. restore) of a single
   process anchors the sweep. *)
let run cfg entry =
  let gh_rate =
    match Throughput_exp.run_one ~n_containers:1 cfg Registry.Gh entry with
    | Some m -> m.Throughput_exp.tput_rps
    | None -> failwith "GH unsupported?"
  in
  let n_requests = max 40 cfg.Config.tput_requests in
  List.map
    (fun u ->
      let rate_rps = u *. gh_rate in
      let base = measure cfg Registry.Base entry ~rate_rps ~n_requests in
      let gh = measure cfg Registry.Gh entry ~rate_rps ~n_requests in
      {
        rate_rps;
        base_mean_ms = base.Stats.mean;
        base_p95_ms = base.Stats.p95;
        gh_mean_ms = gh.Stats.mean;
        gh_p95_ms = gh.Stats.p95;
      })
    utilizations

let print ppf (entry : Catalog.entry) points =
  let rows =
    List.map
      (fun p ->
        [
          Printf.sprintf "%.1f" p.rate_rps;
          Report.fmt_ms p.base_mean_ms;
          Report.fmt_ms p.base_p95_ms;
          Report.fmt_ms p.gh_mean_ms;
          Report.fmt_ms p.gh_p95_ms;
        ])
      points
  in
  Report.table ppf
    ~title:
      (Printf.sprintf
         "Latency vs offered load on %s (open-loop Poisson, 1 container): restoration is \
          invisible until the server nears saturation"
         entry.Catalog.display)
    ~header:[ "offered r/s"; "BASE mean ms"; "BASE p95"; "GH mean ms"; "GH p95" ]
    rows
