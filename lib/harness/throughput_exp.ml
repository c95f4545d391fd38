module Rng = Gh_sim.Rng
module Time_ns = Gh_sim.Time_ns
module Registry = Gh_isolation.Registry
module Catalog = Gh_workloads.Catalog
module Fm = Gh_faas.Function_model

type measurement = {
  strategy : Registry.id;
  tput_rps : float;
  mean_cycle_ms : float;
}

type result = {
  entry : Catalog.entry;
  measurements : measurement list;
}

let default_strategies = [ Registry.Base; Registry.Gh; Registry.Gh_nop; Registry.Fork ]

let principals = Array.append Sweep.principals [| Gh_faas.Principal.make ~id:3 ~name:"carol" |]

let run_one ?n_containers cfg strategy (entry : Catalog.entry) =
  let n_containers = Option.value n_containers ~default:cfg.Config.n_containers in
  let seed =
    cfg.Config.seed
    lxor Hashtbl.hash (entry.Catalog.display, Registry.to_string strategy, n_containers)
  in
  let root = Rng.create seed in
  if not (Registry.supports strategy entry.Catalog.spec) then None
  else begin
      let make_strategy i =
        (* Verification on, tallied off the timeline: bit-identical to the
           unverified sweep (see {!Latency_exp}). *)
        match
          Registry.make strategy ~verify:Groundhog_core.Manager.Verify_full
            ~rng:(Rng.named_split root (string_of_int i)) entry.Catalog.spec
        with
        | Ok s -> s
        | Error msg -> failwith msg
      in
      let deployment =
        (* Idle-time scrubbing is live during the throughput runs too: the
           slices read snapshot memory between requests and find nothing in
           a corruption-free run, so throughput is unchanged — the point is
           that integrity checking rides along at zero simulated cost. *)
        Gh_faas.Openwhisk.deploy ?spans:cfg.Config.spans ?series:cfg.Config.series
          ~slos:cfg.Config.slos ~scrub:Gh_faas.Container.default_scrub
          {
            Gh_faas.Openwhisk.n_cores = n_containers;
            dispatch_ns = cfg.Config.dispatch_ns;
            overhead = Gh_faas.Controller.default_overhead;
            seed;
          }
          ~make_strategy
      in
      let n_requests = Config.tput_requests_for cfg entry.Catalog.spec * n_containers in
      let results =
        (* The window must cover the platform round-trip times a container's
           service rate, or submission throttles throughput (the paper
           chose the in-flight count empirically to saturate). *)
        Gh_faas.Client.saturate deployment.Gh_faas.Openwhisk.engine
          deployment.Gh_faas.Openwhisk.controller ~n_requests
          ~window:(max 16 (48 * n_containers))
          ~principals ~input_kb:entry.Catalog.spec.Fm.input_kb
      in
      let tput = Gh_faas.Client.throughput_rps results in
      let mean_cycle_ms =
        if tput <= 0.0 then Float.nan else 1000.0 *. float_of_int n_containers /. tput
      in
      Some { strategy; tput_rps = tput; mean_cycle_ms }
  end

let run ?(strategies = default_strategies) cfg entries =
  Sweep.grid cfg entries strategies (fun e s -> run_one cfg s e)
  |> List.map (fun (entry, measurements) -> { entry; measurements })

let find result strategy = List.find_opt (fun m -> m.strategy = strategy) result.measurements

let print_fig5 ppf results =
  let columns = [ Registry.Gh; Registry.Gh_nop; Registry.Fork ] in
  let header =
    "benchmark"
    :: (List.map (fun s -> String.uppercase_ascii (Registry.to_string s)) columns
       @ [ "BASE r/s"; "paper GH pred" ])
  in
  let rows =
    List.map
      (fun r ->
        let base = find r Registry.Base in
        let rel s =
          match (find r s, base) with
          | Some m, Some b when b.tput_rps > 0.0 -> Report.fmt_ratio (m.tput_rps /. b.tput_rps)
          | _ -> "-"
        in
        (* The paper's predicted relative throughput: the reciprocal of
           1 + (in-function + restoration overhead)/baseline latency. *)
        let prediction =
          let reference = r.entry.Catalog.reference in
          let base_ms = reference.Gh_workloads.Paper_ref.base_invoker_ms in
          let gh_ms = reference.Gh_workloads.Paper_ref.gh_invoker_ms in
          let restore_ms = reference.Gh_workloads.Paper_ref.restore_ms in
          if base_ms <= 0.0 then Float.nan
          else 1.0 /. (1.0 +. ((gh_ms -. base_ms +. restore_ms) /. base_ms))
        in
        r.entry.Catalog.display
        :: (List.map rel columns
           @ [
               (match base with Some b -> Report.fmt_tput b.tput_rps | None -> "-");
               Report.fmt_ratio prediction;
             ]))
      results
  in
  Report.table ppf
    ~title:"Fig 5 — relative throughput vs BASE (higher is better)"
    ~header rows
