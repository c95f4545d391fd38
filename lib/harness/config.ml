type t = {
  seed : int;
  latency_requests : int;
  latency_requests_medium : int;
  latency_requests_long : int;
  tput_requests : int;
  microbench_requests : int;
  breakdown_requests : int;
  n_containers : int;
  dispatch_ns : Gh_sim.Time_ns.t;
  (* Observability sinks. [None] (the default everywhere) runs the
     experiments without instrumentation; attaching collectors never
     changes simulated behavior, only records it. *)
  spans : Gh_sim.Span.t option;
  metrics : Gh_sim.Metrics.t option;
  series : Gh_sim.Timeseries.t option;
  slos : Gh_sim.Slo.t list;
  jobs : int;
}

let default =
  {
    seed = 42;
    latency_requests = 120;
    latency_requests_medium = 30;
    latency_requests_long = 8;
    tput_requests = 120;
    microbench_requests = 40;
    breakdown_requests = 25;
    n_containers = 4;
    dispatch_ns = Gh_sim.Time_ns.of_us 800.0;
    spans = None;
    metrics = None;
    series = None;
    slos = [];
    jobs = 1;
  }

let full =
  {
    default with
    latency_requests = 1_200;
    latency_requests_medium = 200;
    latency_requests_long = 90;
    tput_requests = 600;
    microbench_requests = 150;
    breakdown_requests = 100;
  }

let quick =
  {
    default with
    latency_requests = 20;
    latency_requests_medium = 8;
    latency_requests_long = 3;
    tput_requests = 20;
    microbench_requests = 8;
    breakdown_requests = 6;
  }

(* Observability collectors are plain mutable structures shared across
   every cell of a sweep; rather than wrap each sink in a lock (distorting
   what the traces measure), an instrumented run simply stays serial. *)
let instrumented t =
  t.spans <> None || t.metrics <> None || t.series <> None || t.slos <> []

let effective_jobs t = if instrumented t then 1 else max 1 t.jobs

let obs t =
  { Gh_sim.Obs.none with spans = t.spans; metrics = t.metrics; series = t.series; slos = t.slos }

let sec = 1_000_000_000

let latency_requests_for t (spec : Gh_faas.Function_model.spec) =
  if spec.Gh_faas.Function_model.exec_ns > 10 * sec then t.latency_requests_long
  else if spec.Gh_faas.Function_model.exec_ns > 1 * sec then t.latency_requests_medium
  else t.latency_requests

let tput_requests_for t (spec : Gh_faas.Function_model.spec) =
  if spec.Gh_faas.Function_model.exec_ns > 10 * sec then max 4 (t.tput_requests / 30)
  else if spec.Gh_faas.Function_model.exec_ns > 1 * sec then max 8 (t.tput_requests / 6)
  else t.tput_requests
