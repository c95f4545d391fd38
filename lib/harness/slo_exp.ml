(* SLO observability sweep: the 3-node fleet of Cluster_exp under
   injected node faults and offered-load pressure, with the full
   observability stack attached — windowed time series, burn-rate SLO
   alerting, and the failure flight recorder — measuring how much
   warning the alerts give before users visibly leave the objective.

   The claim under test is fail-closed alerting: on the failover-on arm,
   every episode in which an objective is breached (the exact event log,
   replayed cumulatively, drops below the objective's target) must be
   preceded — or met at the same instant — by a fired alert for that
   objective. A breach nobody was paged for is a violation, and so is a
   flight-recorder dump that fails schema validation or does not cover
   the configured pre-failure window.

   The gate binds availability and latency: the stock cold-start
   objective (target 0.75) cannot mathematically trip the workbook burn
   rates (6x and 14.4x the 0.25 budget both exceed an error rate of 1),
   so its series and alerts are reported but never gated. The
   failover-off arm is reported for contrast only: with the management
   plane off, whole-fleet damage is permanent and a breach without a
   timely alert is the expected catastrophe, not a regression. *)

module Engine = Gh_sim.Engine
module Time_ns = Gh_sim.Time_ns
module Trace = Gh_sim.Trace
module Span = Gh_sim.Span
module Metrics = Gh_sim.Metrics
module Timeseries = Gh_sim.Timeseries
module Slo = Gh_sim.Slo
module Flight_recorder = Gh_sim.Flight_recorder
module Registry = Gh_isolation.Registry
module Catalog = Gh_workloads.Catalog
module Fm = Gh_faas.Function_model
module Request = Gh_faas.Request
module Cluster = Gh_faas.Cluster
module Controller = Gh_faas.Controller

type row = {
  fault_per_min : float;
  load_factor : float;  (** Offered rate as a fraction of fleet capacity. *)
  failover : bool;
  offered : int;
  served : int;
  availability : float;
  p99_ms : float;
  alerts_fired : int;  (** Fire transitions across every objective. *)
  first_alert_ms : float;  (** Measurement start to first fire; nan if none. *)
  avail_breach_ms : float;  (** nan when availability never left objective. *)
  avail_lead_ms : float;  (** Breach minus first availability fire. *)
  latency_breach_ms : float;
  latency_lead_ms : float;
  unalerted_breaches : int;  (** Gated objectives breached with no prior fire. *)
  dumps : int;  (** Flight-recorder dumps taken. *)
  dump_errors : int;  (** Schema or window-coverage failures. Must be 0. *)
  span_errors : int;  (** {!Gh_sim.Span.check} failures (failover on). *)
  series_windows : int;  (** Rolled time-series windows. *)
}

type point = { fault_per_min : float; rows : row list }

let default_fault_rates = [ 0.0; 0.2 ]
let default_load_factors = [ 0.45; 1.25 ]
let default_requests = 160
let slo_base_ns = Time_ns.of_ms 200.0
let recorder_window_ns = Time_ns.of_ms 500.0

(* One classified request event, replayed after the run to find the
   exact moment users left an objective (the SLO's sketchless ground
   truth). Failures carry [e2e_ms = infinity] and [cold = false]. *)
type ev = { ev_at : Time_ns.t; ev_ok : bool; ev_e2e_ms : float }

(* First instant the cumulative bad fraction exceeds the budget with
   enough events — the replayed "users have visibly left the objective".
   Used for availability, whose tiny budget (0.1%) sits far below the
   burn thresholds: any real failure burst trips the alert first. *)
let breach_at events ~classify ~target ~min_events =
  let rec go good bad = function
    | [] -> None
    | e :: rest ->
        let ok = classify e in
        let good = if ok then good + 1 else good in
        let bad = if ok then bad else bad + 1 in
        let total = good + bad in
        if
          total >= min_events
          && float_of_int bad /. float_of_int total > 1.0 -. target
        then Some e.ev_at
        else go good bad rest
  in
  go 0 0 events

(* First instant a trailing window holds a sustained episode: bad
   fraction at least [frac] over [window_ns] with enough events. The
   latency gate uses this at twice the fast-page burn over the fast
   rule's long window — strictly more severe than the alert condition,
   so an episode that breaches here must already have been firing. *)
let windowed_breach_at events ~classify ~window_ns ~frac ~min_events =
  let arr = Array.of_list events in
  let n = Array.length arr in
  let rec go i lo bad total =
    if i >= n then None
    else begin
      let e = arr.(i) in
      (* Slide the window start past events older than [window_ns]. *)
      let rec drop lo bad total =
        if lo < i && arr.(lo).ev_at < e.ev_at - window_ns then
          drop (lo + 1)
            (if classify arr.(lo) then bad else bad - 1)
            (total - 1)
        else (lo, bad, total)
      in
      let lo, bad, total = drop lo bad total in
      let bad = if classify e then bad else bad + 1 in
      let total = total + 1 in
      if total >= min_events && float_of_int bad /. float_of_int total >= frac then
        Some e.ev_at
      else go (i + 1) lo bad total
    end
  in
  go 0 0 0 0

let first_fire slo =
  List.find_map
    (fun (a : Slo.alert) -> if a.Slo.a_kind = `Fire then Some a.Slo.a_at else None)
    (Slo.alerts slo)

let count_fires slo =
  List.length (List.filter (fun (a : Slo.alert) -> a.Slo.a_kind = `Fire) (Slo.alerts slo))

let measure cfg spec ~fault_per_min ~load_factor ~failover ~requests =
  (* Both failover arms share the seed: identical arrivals and fault
     schedule, so the comparison isolates the management plane. *)
  let seed =
    cfg.Config.seed lxor Hashtbl.hash ("slo", spec.Fm.name, fault_per_min, load_factor)
  in
  let service = Sweep.service_ns cfg Registry.Gh spec ~seed ~salt:0x510 in
  (* The latency objective is the fleet's own attempt patience. *)
  let latency_limit_ms = Time_ns.to_ms (Cluster_exp.response_timeout ~service) in
  let registry = Metrics.create () in
  let trace = Trace.create ~capacity:50_000 () in
  let spans = Span.create () in
  let series = Timeseries.create ~window_ns:(Time_ns.of_ms 50.0) registry in
  let slos =
    Slo.standard ~trace ~metrics:registry ~base_ns:slo_base_ns ~latency_limit_ms
      ~availability_target:0.999 ()
  in
  let recorder =
    Flight_recorder.create ~capacity:64 ~window_ns:recorder_window_ns ~trace ~series
      ~name:
        (Printf.sprintf "slo-%s-f%.2f-l%.2f-%s" spec.Fm.name fault_per_min load_factor
           (if failover then "on" else "off"))
      ()
  in
  (* Two scheduled crashes across the arrival span on top of the
     background rate: every faulty cell contains real episodes at any
     seed. *)
  let f =
    Cluster_exp.fleet
      ~obs:
        {
          Gh_sim.Obs.trace = Some trace;
          spans = Some spans;
          metrics = Some registry;
          series = Some series;
          slos;
          recorder = Some recorder;
        }
      cfg spec ~seed
      ~service ~label:"slo" ~load:load_factor ~min_span_s:2.0 ~fault_per_min
      ~crashes:[ (0, 0.15); (1, 0.55) ]
      ~placement:Cluster.Least_loaded ~failover ~requests
  in
  let engine = f.Cluster_exp.engine in
  (* The exact per-request log, measured requests only (warm-ups are
     invisible to the breach replay, like any pre-launch traffic). *)
  let events = ref [] in
  let served = ref 0 in
  let e2e_samples = ref [] in
  let failed req =
    if req.Request.id < 1_000_000 then
      events :=
        { ev_at = Engine.now engine; ev_ok = false; ev_e2e_ms = Float.infinity } :: !events
  in
  Cluster.set_on_failed f.Cluster_exp.cluster failed;
  Controller.set_on_shed f.Cluster_exp.controller failed;
  Cluster_exp.launch f ~on_complete:(fun (c : Controller.completion) ->
      incr served;
      let ms = Time_ns.to_ms c.Controller.e2e_ns in
      e2e_samples := ms :: !e2e_samples;
      events := { ev_at = Engine.now engine; ev_ok = true; ev_e2e_ms = ms } :: !events);
  Timeseries.flush series ~now:(Engine.now engine);
  let events = List.rev !events in
  let offered = List.length f.Cluster_exp.arrivals in
  (* Lead times: replayed breach instant minus the objective's first
     fired alert. Negative lead (alert after the breach) is exactly what
     the violation count below catches. *)
  let slo_named name = List.find (fun s -> Slo.name s = name) slos in
  let avail_slo = slo_named "availability" in
  let lat_slo = slo_named "latency-p99" in
  let avail_breach =
    breach_at events ~classify:(fun e -> e.ev_ok) ~target:0.999 ~min_events:20
  in
  (* Latency budget (1%) is wide enough that a single slow straggler
     moves the cumulative fraction past it long before any burn-rate
     rule could react; the user-visible breach is instead a sustained
     episode: slow fraction at twice the fast-page burn (2 x 14.4 x
     budget) over the fast rule's long window (12 x base). Reaching
     that level implies the fast-rule condition held strictly earlier. *)
  let lat_breach =
    windowed_breach_at events
      ~classify:(fun e -> e.ev_ok && e.ev_e2e_ms <= latency_limit_ms)
      ~window_ns:(12 * slo_base_ns)
      ~frac:(2.0 *. 14.4 *. 0.01) ~min_events:20
  in
  let lead breach slo =
    match (breach, first_fire slo) with
    | Some b, Some f -> Time_ns.to_ms (b - f)
    | _ -> Float.nan
  in
  let unalerted breach slo =
    match breach with
    | None -> 0
    | Some b -> (
        match first_fire slo with Some f when f <= b -> 0 | _ -> 1)
  in
  let unalerted_breaches =
    if failover then unalerted avail_breach avail_slo + unalerted lat_breach lat_slo
    else 0
  in
  (* Every dump must parse under the exported schema and cover the
     configured pre-failure window. *)
  let dump_errors =
    (match Flight_recorder.validate (Flight_recorder.to_json recorder) with
    | Ok n when n = List.length (Flight_recorder.dumps recorder) -> 0
    | Ok _ -> 1
    | Error _ -> 1)
    + List.length
        (List.filter
           (fun (d : Flight_recorder.dump) ->
             d.Flight_recorder.d_window_ns <> recorder_window_ns)
           (Flight_recorder.dumps recorder))
  in
  (* With failover off, attempts on dead nodes legitimately never
     conclude, so their spans (and roots) stay open; only the arm that
     promises full accounting is held to span closure. *)
  let span_errors =
    if failover then match Span.check spans with Ok () -> 0 | Error _ -> 1 else 0
  in
  let alerts_fired = List.fold_left (fun n s -> n + count_fires s) 0 slos in
  let first_alert =
    List.fold_left
      (fun acc s ->
        match (acc, first_fire s) with
        | None, f -> f
        | Some a, Some f -> Some (min a f)
        | Some a, None -> Some a)
      None slos
  in
  let rel_ms = function
    | Some t -> Time_ns.to_ms (t - Cluster_exp.warmup)
    | None -> Float.nan
  in
  {
    fault_per_min;
    load_factor;
    failover;
    offered;
    served = !served;
    availability =
      (if offered = 0 then Float.nan else float_of_int !served /. float_of_int offered);
    p99_ms = snd (Sweep.p50_p99 !e2e_samples);
    alerts_fired;
    first_alert_ms = rel_ms first_alert;
    avail_breach_ms = rel_ms avail_breach;
    avail_lead_ms = lead avail_breach avail_slo;
    latency_breach_ms = rel_ms lat_breach;
    latency_lead_ms = lead lat_breach lat_slo;
    unalerted_breaches;
    dumps = Flight_recorder.total recorder;
    dump_errors;
    span_errors;
    series_windows = Timeseries.rolled_windows series;
  }

let run cfg ?(fault_rates = default_fault_rates) ?(load_factors = default_load_factors)
    ?(requests = default_requests) (entry : Catalog.entry) =
  List.map
    (fun fault_per_min ->
      {
        fault_per_min;
        rows =
          List.concat_map
            (fun load_factor ->
              [
                measure cfg entry.Catalog.spec ~fault_per_min ~load_factor ~failover:true
                  ~requests;
                measure cfg entry.Catalog.spec ~fault_per_min ~load_factor ~failover:false
                  ~requests;
              ])
            load_factors;
      })
    fault_rates

(* The CI gate: a gated objective breached with no prior alert on the
   failover-on arm, a flight-recorder dump that fails validation or
   window coverage, or a span-closure failure. *)
let violations points =
  List.fold_left
    (fun n p ->
      List.fold_left
        (fun n r -> n + r.unalerted_breaches + r.dump_errors + r.span_errors)
        n p.rows)
    0 points

let gate points =
  match violations points with
  | 0 -> Ok ()
  | n ->
      Error
        (Printf.sprintf
           "OBSERVABILITY CONTRACT VIOLATION: %d breach(es) — objective left without a prior \
            alert, invalid or window-short flight-recorder dump, or unclosed span tree"
           n)

let print ppf (entry : Catalog.entry) points =
  let header =
    [
      "fault/min";
      "load";
      "fo";
      "offered";
      "served";
      "avail";
      "p99 ms";
      "alerts";
      "alert@ms";
      "av-breach";
      "av-lead";
      "lat-breach";
      "lat-lead";
      "unalerted";
      "dumps";
      "dump-err";
      "span-err";
      "windows";
    ]
  in
  let fmt_opt v = if Float.is_nan v then "-" else Printf.sprintf "%.0f" v in
  let rows =
    List.concat_map
      (fun p ->
        List.map
          (fun (r : row) ->
            [
              Printf.sprintf "%.2f" r.fault_per_min;
              Printf.sprintf "%.0f%%" (100.0 *. r.load_factor);
              (if r.failover then "on" else "off");
              string_of_int r.offered;
              string_of_int r.served;
              Printf.sprintf "%.1f%%" (100.0 *. r.availability);
              (if Float.is_nan r.p99_ms then "-" else Printf.sprintf "%.1f" r.p99_ms);
              string_of_int r.alerts_fired;
              fmt_opt r.first_alert_ms;
              fmt_opt r.avail_breach_ms;
              fmt_opt r.avail_lead_ms;
              fmt_opt r.latency_breach_ms;
              fmt_opt r.latency_lead_ms;
              string_of_int r.unalerted_breaches;
              string_of_int r.dumps;
              string_of_int r.dump_errors;
              string_of_int r.span_errors;
              string_of_int r.series_windows;
            ])
          p.rows)
      points
  in
  Report.table ppf
    ~title:
      (Printf.sprintf
         "SLO burn-rate alerting on %s: %d-node fleet under injected faults and offered \
          load, burn-rate alerts (availability 99.9%%, p99 latency, cold-start) vs the \
          replayed breach instant. 'unalerted'/'dump-err'/'span-err' must be 0 on \
          failover-on rows: every breach pre-announced, every flight-recorder dump \
          schema-valid and window-covering, every span tree closed."
         entry.Catalog.display Cluster_exp.n_nodes)
    ~header rows

let sweep =
  Sweep.Sweep
    {
      name = "slo";
      doc =
        "Sweep injected fault and offered-load rates through the fleet with the full \
         observability stack (windowed series, burn-rate SLO alerts, failure flight \
         recorder); exits nonzero if any availability/latency breach arrives without a \
         prior alert on the failover arm, or any flight-recorder dump fails validation.";
      n_doc = "Arrivals per (fault rate, load, failover) cell.";
      default_n = default_requests;
      smoke_doc = "Tiny CI run: one nonzero fault rate, both load points, few requests.";
      smoke = (fun cfg entry -> run cfg ~fault_rates:[ 0.2 ] ~requests:120 entry);
      run = (fun cfg ~requests entry -> run cfg ~requests entry);
      print;
      gate;
    }
