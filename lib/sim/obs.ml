type t = {
  trace : Trace.t option;
  spans : Span.t option;
  metrics : Metrics.t option;
  series : Timeseries.t option;
  slos : Slo.t list;
  recorder : Flight_recorder.t option;
}

let none =
  { trace = None; spans = None; metrics = None; series = None; slos = []; recorder = None }

let tick t ~now = match t.series with Some ts -> Timeseries.tick ts ~now | None -> ()

let heartbeat t ~now =
  tick t ~now;
  match t.slos with [] -> () | slos -> List.iter (fun slo -> Slo.tick slo ~now) slos

(* A loop rather than [List.iter]: no closure to allocate per request
   when no SLO is attached. *)
let rec record_slos slos ~now ~ok ~e2e_ms ~cold =
  match slos with
  | [] -> ()
  | slo :: rest ->
      Slo.record_completion slo ~now ~ok ~e2e_ms ~cold;
      Slo.tick slo ~now;
      record_slos rest ~now ~ok ~e2e_ms ~cold

(* The latency arrives in ns and becomes a float only where a collector
   takes it, so nothing is boxed when none is attached. *)
let completion t ~now ?(steps = []) name ~e2e_ns ~ok ~cold =
  (match t.series with
  | Some ts ->
      Timeseries.tick ts ~now;
      Timeseries.observe ts ~now name (Time_ns.to_ms e2e_ns);
      List.iter (fun (step, ms) -> Timeseries.observe ts ~now step ms) steps
  | None -> ());
  match t.slos with
  | [] -> ()
  | slos -> record_slos slos ~now ~ok ~e2e_ms:(Time_ns.to_ms e2e_ns) ~cold

let failure t ~now = record_slos t.slos ~now ~ok:false ~e2e_ms:Float.infinity ~cold:false

let failure_edge t ~now ~node ~reason ~detail =
  match t.recorder with
  | Some r -> ignore (Flight_recorder.snapshot r ~now ~node ~reason ~detail ())
  | None -> ()
