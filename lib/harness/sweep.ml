(* The scaffold shared by the five fail-closed sweeps (fault, overload,
   cluster, scrub, slo): the two tenants every harness alternates, the
   capacity probe that sizes offered load and timeouts, the recovery
   config of the invoker-based sweeps, NaN-on-empty latency summaries, and
   the descriptor that turns a harness into a `gh-bench` subcommand. Each
   harness keeps only its cell logic, its gate and its table. *)

module Rng = Gh_sim.Rng
module Time_ns = Gh_sim.Time_ns
module Stats = Gh_sim.Stats
module Registry = Gh_isolation.Registry
module Catalog = Gh_workloads.Catalog
module Fm = Gh_faas.Function_model
module Intf = Gh_faas.Strategy_intf
module Invoker = Gh_faas.Invoker
module Container = Gh_faas.Container
module Backoff = Gh_faas.Backoff

let principals =
  [| Gh_faas.Principal.make ~id:1 ~name:"alice"; Gh_faas.Principal.make ~id:2 ~name:"bob" |]

let service_ns cfg strategy spec ~seed ~salt =
  match Registry.make strategy ~rng:(Rng.create (seed lxor salt)) spec with
  | Error msg -> failwith ("capacity probe: cannot build strategy: " ^ msg)
  | Ok s ->
      let n = 8 in
      let total = ref 0 in
      for i = 1 to n do
        let req =
          Gh_faas.Request.make ~id:(1_000_000 + i)
            ~principal:principals.(i land 1)
            ~input_kb:spec.Fm.input_kb ()
        in
        let inv = s.Intf.invoke req in
        total := !total + inv.Intf.on_path_ns + inv.Intf.post_ns
      done;
      (!total / n) + cfg.Config.dispatch_ns

let recovery spec =
  {
    Invoker.container =
      {
        (* Hang timeout scaled to the workload so slow benchmarks aren't
           killed while legitimately computing. *)
        Container.timeout_ns = Some (Time_ns.of_sec 1.0 + (8 * spec.Fm.exec_ns));
        quarantine_after = 3;
        rebuild_backoff = Backoff.recovery;
        max_rebuild_attempts = 5;
      };
    max_attempts = 3;
    retry_backoff = Backoff.default;
  }

let p50_p99 = function
  | [] -> (Float.nan, Float.nan)
  | samples ->
      let s = Stats.summarize (Array.of_list samples) in
      (s.Stats.median, s.Stats.p99)

let mean_ms = function
  | [] -> Float.nan
  | samples -> Stats.mean (Array.of_list (List.map Time_ns.to_ms samples))

type t =
  | Sweep : {
      name : string;
      doc : string;
      n_doc : string;
      default_n : int;
      smoke_doc : string;
      smoke : Config.t -> Catalog.entry -> 'points;
      run : Config.t -> requests:int -> Catalog.entry -> 'points;
      print : Format.formatter -> Catalog.entry -> 'points -> unit;
      gate : 'points -> (unit, string) result;
    }
      -> t

let exec (Sweep s) cfg ~smoke ~requests entry ppf =
  let points = if smoke then s.smoke cfg entry else s.run cfg ~requests entry in
  s.print ppf entry points;
  s.gate points
