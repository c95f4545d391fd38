type config = {
  n_cores : int;
  dispatch_ns : Gh_sim.Time_ns.t;
  overhead : Controller.overhead_model;
  seed : int;
}

let default_config =
  {
    n_cores = 4;
    dispatch_ns = Gh_sim.Time_ns.of_us 800.0;
    overhead = Controller.default_overhead;
    seed = 42;
  }

type t = {
  engine : Gh_sim.Engine.t;
  controller : Controller.t;
  invoker : Invoker.t;
  rng : Gh_sim.Rng.t;
}

let deploy ?trace ?spans ?series ?(slos = []) ?scrub config ~make_strategy =
  let obs = { Gh_sim.Obs.none with trace; spans; series; slos } in
  let engine = Gh_sim.Engine.create () in
  let rng = Gh_sim.Rng.create config.seed in
  let invoker =
    Invoker.create ~obs ?scrub engine ~n_containers:config.n_cores
      ~dispatch_ns:config.dispatch_ns ~make_strategy
  in
  let controller =
    Controller.create ~overhead:config.overhead ~obs engine ~rng (Invoker.submit invoker)
  in
  { engine; controller; invoker; rng }
