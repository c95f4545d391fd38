(* Declarative service-level objectives evaluated as multi-window,
   multi-burn-rate alerts (the SRE-workbook recipe, scaled to sim time).

   An objective reduces every request completion to a good/bad event:
   availability (served vs failed), latency (under the limit vs over),
   cold-start rate (warm vs cold). Events land in coarse time buckets;
   [tick] evaluates each alert rule's burn rate — observed error rate
   over the error budget (1 - target) — over a long and a short window.
   A rule trips only when BOTH windows burn: the long window proves the
   budget spend is real, the short window proves it is still happening
   (so alerts clear quickly once the episode ends). Hysteresis: a firing
   alert clears only after [clear_after] consecutive clean evaluations.

   Like the rest of the observability stack this module only reads the
   clock it is handed — no engine, no randomness, no charged time. *)

type objective =
  | Availability of { target : float }
  | Latency of { limit_ms : float; target : float }
  | Cold_start of { target : float }  (* fraction of serves that are warm *)

let objective_name = function
  | Availability _ -> "availability"
  | Latency _ -> "latency"
  | Cold_start _ -> "cold-start"

let target_of = function
  | Availability { target } | Latency { target; _ } | Cold_start { target } -> target

type rule = { long_ns : Time_ns.t; short_ns : Time_ns.t; burn : float }

type config = {
  name : string;
  objective : objective;
  rules : rule list;
  clear_after : int;
  min_events : int;
}

(* The workbook's 5m/1h + 30m/6h pairs keep their shape, scaled so the
   fast rule's short window is [base_ns]. *)
let default_rules ~base_ns =
  [
    { long_ns = 12 * base_ns; short_ns = base_ns; burn = 14.4 };
    { long_ns = 72 * base_ns; short_ns = 6 * base_ns; burn = 6.0 };
  ]

type alert = {
  a_at : Time_ns.t;
  a_kind : [ `Fire | `Clear ];
  a_rule : int;  (* index into [rules]; the tripping rule on fire *)
  a_burn_long : float;
  a_burn_short : float;
}

type bucket = { mutable good : int; mutable bad : int }

type t = {
  cfg : config;
  bucket_ns : Time_ns.t;
  horizon_ns : Time_ns.t;
  buckets : (int, bucket) Hashtbl.t;
  mutable total_good : int;
  mutable total_bad : int;
  mutable firing : bool;
  mutable clean_streak : int;
  mutable rev_alerts : alert list;
  trace : Trace.t option;
  c_good : Metrics.counter option;
  c_bad : Metrics.counter option;
  c_fired : Metrics.counter option;
  c_cleared : Metrics.counter option;
  g_firing : Metrics.gauge option;
}

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let create ?trace ?metrics config =
  if config.rules = [] then invalid_arg "Slo.create: no rules";
  let target = target_of config.objective in
  if not (target > 0.0 && target < 1.0) then
    invalid_arg "Slo.create: target must be in (0, 1)";
  List.iter
    (fun r ->
      if r.short_ns <= 0 || r.long_ns < r.short_ns then
        invalid_arg "Slo.create: need 0 < short_ns <= long_ns";
      if r.burn <= 0.0 then invalid_arg "Slo.create: burn must be positive")
    config.rules;
  let bucket_ns =
    List.fold_left (fun g r -> gcd (gcd g r.long_ns) r.short_ns) 0 config.rules
  in
  let horizon_ns = List.fold_left (fun m r -> max m r.long_ns) 0 config.rules in
  let handle kind =
    Option.map
      (fun m -> Metrics.counter m (Printf.sprintf "slo.%s.%s" config.name kind))
      metrics
  in
  {
    cfg = config;
    bucket_ns;
    horizon_ns;
    buckets = Hashtbl.create 64;
    total_good = 0;
    total_bad = 0;
    firing = false;
    clean_streak = 0;
    rev_alerts = [];
    trace;
    c_good = handle "good";
    c_bad = handle "bad";
    c_fired = handle "fired";
    c_cleared = handle "cleared";
    g_firing =
      Option.map
        (fun m ->
          let g = Metrics.gauge m (Printf.sprintf "slo.%s.firing" config.name) in
          Metrics.set g 0.0;
          g)
        metrics;
  }

let name t = t.cfg.name
let firing t = t.firing
let alerts t = List.rev t.rev_alerts
let totals t = (t.total_good, t.total_bad)

let record t ~now ~good =
  let idx = now / t.bucket_ns in
  let b =
    match Hashtbl.find_opt t.buckets idx with
    | Some b -> b
    | None ->
        let b = { good = 0; bad = 0 } in
        Hashtbl.replace t.buckets idx b;
        b
  in
  if good then begin
    b.good <- b.good + 1;
    t.total_good <- t.total_good + 1;
    Option.iter Metrics.incr t.c_good
  end
  else begin
    b.bad <- b.bad + 1;
    t.total_bad <- t.total_bad + 1;
    Option.iter Metrics.incr t.c_bad
  end

(* One completion event, classified by this SLO's objective. A failed
   request is bad for availability AND for latency (the user never got
   an answer inside the limit); the cold-start SLI only sees serves. *)
let record_completion t ~now ~ok ~e2e_ms ~cold =
  match t.cfg.objective with
  | Availability _ -> record t ~now ~good:ok
  | Latency { limit_ms; _ } -> record t ~now ~good:(ok && e2e_ms <= limit_ms)
  | Cold_start _ -> if ok then record t ~now ~good:(not cold)

(* Events in the window (now - w, now], counted at bucket granularity:
   a bucket participates if it starts inside the window. The window edge
   is therefore quantized by bucket_ns — deterministic, and tight enough
   since bucket_ns divides every configured window. *)
let window_counts t ~now w =
  let lo = max 0 ((now - w) / t.bucket_ns + 1) in
  let hi = now / t.bucket_ns in
  let good = ref 0 and bad = ref 0 in
  for i = lo to hi do
    match Hashtbl.find_opt t.buckets i with
    | Some b ->
        good := !good + b.good;
        bad := !bad + b.bad
    | None -> ()
  done;
  (!good, !bad)

let burn_rate t ~now w =
  let good, bad = window_counts t ~now w in
  let total = good + bad in
  if total = 0 then (0.0, 0)
  else begin
    let err = float_of_int bad /. float_of_int total in
    let budget = 1.0 -. target_of t.cfg.objective in
    (err /. budget, total)
  end

let prune t ~now =
  let cutoff = ((now - t.horizon_ns) / t.bucket_ns) - 2 in
  if cutoff > 0 then begin
    let stale = Hashtbl.fold (fun i _ acc -> if i < cutoff then i :: acc else acc) t.buckets [] in
    List.iter (Hashtbl.remove t.buckets) stale
  end

let emit t ~now what detail =
  (match t.trace with
  | Some tr -> Trace.emit tr ~at:now ~category:"slo" ~what detail
  | None -> ())

let tick t ~now =
  prune t ~now;
  (* First rule whose long AND short windows both exceed its burn
     threshold, with enough long-window events to mean anything. *)
  let tripping =
    let rec go i = function
      | [] -> None
      | r :: rest ->
          let bl, nl = burn_rate t ~now r.long_ns in
          let bs, _ = burn_rate t ~now r.short_ns in
          if nl >= t.cfg.min_events && bl >= r.burn && bs >= r.burn then Some (i, bl, bs)
          else go (i + 1) rest
    in
    go 0 t.cfg.rules
  in
  match (t.firing, tripping) with
  | false, Some (i, bl, bs) ->
      t.firing <- true;
      t.clean_streak <- 0;
      t.rev_alerts <-
        { a_at = now; a_kind = `Fire; a_rule = i; a_burn_long = bl; a_burn_short = bs }
        :: t.rev_alerts;
      Option.iter Metrics.incr t.c_fired;
      Option.iter (fun g -> Metrics.set g 1.0) t.g_firing;
      emit t ~now "fire"
        (Printf.sprintf "%s rule#%d burn long=%.1f short=%.1f" t.cfg.name i bl bs)
  | true, Some _ -> t.clean_streak <- 0
  | true, None ->
      t.clean_streak <- t.clean_streak + 1;
      if t.clean_streak >= t.cfg.clear_after then begin
        t.firing <- false;
        t.clean_streak <- 0;
        t.rev_alerts <-
          { a_at = now; a_kind = `Clear; a_rule = -1; a_burn_long = 0.0; a_burn_short = 0.0 }
          :: t.rev_alerts;
        Option.iter Metrics.incr t.c_cleared;
        Option.iter (fun g -> Metrics.set g 0.0) t.g_firing;
        emit t ~now "clear" t.cfg.name
      end
  | false, None -> ()

(* A ready-made objective set for the CLI and the slo experiment:
   availability, p99-style latency, and cold-start rate, each on the
   scaled fast+slow rule pair. *)
let standard ?trace ?metrics ?(base_ns = Time_ns.of_ms 200.0) ?(latency_limit_ms = 250.0)
    ?(availability_target = 0.999) () =
  let rules = default_rules ~base_ns in
  let mk name objective min_events =
    create ?trace ?metrics { name; objective; rules; clear_after = 3; min_events }
  in
  [
    mk "availability" (Availability { target = availability_target }) 20;
    mk "latency-p99" (Latency { limit_ms = latency_limit_ms; target = 0.99 }) 20;
    mk "cold-start" (Cold_start { target = 0.75 }) 40;
  ]

let to_json t =
  Json.Assoc
    [
      ("name", Json.String t.cfg.name);
      ("objective", Json.String (objective_name t.cfg.objective));
      ("target", Json.Float (target_of t.cfg.objective));
      ("good", Json.Int t.total_good);
      ("bad", Json.Int t.total_bad);
      ("firing", Json.Bool t.firing);
      ( "alerts",
        Json.List
          (List.map
             (fun a ->
               Json.Assoc
                 [
                   ("at_ns", Json.Int a.a_at);
                   ("kind", Json.String (match a.a_kind with `Fire -> "fire" | `Clear -> "clear"));
                   ("rule", Json.Int a.a_rule);
                   ("burn_long", Json.Float a.a_burn_long);
                   ("burn_short", Json.Float a.a_burn_short);
                 ])
             (alerts t)) );
    ]
