(* Cluster fault-tolerance sweep: a 3-node fleet behind the controller,
   node-level faults (crashes, hangs, message loss, heartbeat drops)
   injected from the seeded plan, with the management plane — health
   checks, circuit breakers, restart supervision, failover retries and
   hedging — on and off over the same seeded request stream.

   The claim under test: with failover on, availability stays near 100%
   and p99 inflation is bounded even while nodes crash mid-run (lost
   work is re-dispatched within its deadline); with failover off the
   same crash schedule permanently removes capacity and goodput
   collapses. Either way the delivery contract holds: no request is
   served twice, none is both failed and served, and every node
   completion is accounted (served, suppressed duplicate, or died with
   its node).

   Crash schedule: a per-tick probability derived from the configured
   per-minute rate, plus three scheduled occurrences (the fault plan's
   [nth] rule) spread over the arrival span — so every nonzero-rate cell
   exercises real crashes deterministically, at any seed, and the two
   failover arms face the same early fleet damage. *)

module Engine = Gh_sim.Engine
module Rng = Gh_sim.Rng
module Time_ns = Gh_sim.Time_ns
module Fault = Gh_sim.Fault
module Registry = Gh_isolation.Registry
module Catalog = Gh_workloads.Catalog
module Synthetic = Gh_workloads.Synthetic
module Fm = Gh_faas.Function_model
module Request = Gh_faas.Request
module Admission = Gh_faas.Admission
module Node = Gh_faas.Node
module Cluster = Gh_faas.Cluster
module Controller = Gh_faas.Controller

type row = {
  rate_per_min : float;
  placement : Cluster.placement;
  failover : bool;
  offered : int;
  served : int;
  failed : int;
  availability : float;
  goodput_rps : float;
  p50_ms : float;
  p99_ms : float;
  failover_p99_ms : float;  (** First failure signal to winning response. *)
  retries : int;
  hedges : int;
  cancelled : int;  (** Still-queued hedge losers removed after the win. *)
  crashes : int;
  hangs : int;
  restarts : int;
  timeouts : int;
  wasted : int;
  lost : int;
  double_served : int;  (** Requests delivered more than once. Must be 0. *)
  shed_and_served : int;  (** Requests both failed and served. Must be 0. *)
  conservation_residue : int;
      (** node completions - (served-by-response + wasted + lost). Must be 0. *)
  inflight_residue : int;
      (** Attempts/requests unaccounted after drain (failover on). Must be 0. *)
}

type point = { rate_per_min : float; rows : row list }

let default_rates = [ 0.0; 0.01; 0.05; 0.2 ]
let default_placements = [ Cluster.Least_loaded; Cluster.Warm_aware ]
let default_requests = 200
let n_nodes = 3
let cores_per_node = 2
let warmup = Time_ns.of_sec 2.0

(* Attempt patience: generous against honest queueing (the fault-free
   p99 is well under this), small against the deadline so a timed-out
   attempt leaves room to fail over and still serve. *)
let response_timeout ~service = max (Time_ns.of_ms 250.0) (6 * service)

type fleet = {
  engine : Engine.t;
  cluster : Cluster.t;
  controller : Controller.t;
  spec : Fm.spec;
  arrivals : Time_ns.t list;
  last_arrival : Time_ns.t;
  horizon : Time_ns.t;
  ttl : Time_ns.t;
}

let fleet ?obs cfg spec ~seed ~service ~label ~load
    ~min_span_s ~fault_per_min ~crashes ~placement ~failover ~requests =
  let root = Rng.create seed in
  let fleet_cores = n_nodes * cores_per_node in
  let capacity_rps = float_of_int fleet_cores *. 1.0e9 /. float_of_int service in
  let rate_rps = Float.min (load *. capacity_rps) (float_of_int requests /. min_span_s) in
  let hb = Time_ns.of_ms 100.0 in
  let response_timeout = response_timeout ~service in
  (* Client deadline: room for two timed-out attempts plus a served one
     even when a restart window (~1 s) sits in the middle. *)
  let ttl = max (Time_ns.of_sec 2.0) (8 * response_timeout) in
  let arrivals =
    let arng = Rng.create (seed lxor Hashtbl.hash (label ^ "-arrivals")) in
    List.map
      (fun t -> t + warmup)
      (Synthetic.burst ~duty:0.5 ~cycle_s:1.0 arng ~rate_rps ~n:requests)
  in
  let last_arrival = List.fold_left max warmup arrivals in
  let horizon = last_arrival + ttl + Time_ns.of_sec 2.0 in
  let fault =
    if fault_per_min <= 0.0 then Fault.none
    else begin
      let plan = Fault.create ~seed:(Hashtbl.hash (seed, label ^ "-plan")) in
      let ticks_per_min = 60.0 *. 1.0e9 /. float_of_int hb in
      let per_tick = fault_per_min /. ticks_per_min in
      (* Crash draws advance n_nodes per tick whether members are up or
         not, so member [node]'s draw on tick k (1-based) is occurrence
         (k-1)*n_nodes + node + 1: each crash point (node, fraction of the
         arrival span) fires on that member at a fixed time in both
         failover arms, on top of the rate-derived background. *)
      let crash_nths =
        List.map
          (fun (node, f) ->
            let tick =
              max 1 ((warmup + int_of_float (f *. float_of_int (last_arrival - warmup))) / hb)
            in
            ((tick - 1) * n_nodes) + node + 1)
          crashes
      in
      Fault.set plan Fault.Node_crash ~prob:per_tick ~nth:crash_nths ();
      Fault.set plan Fault.Node_hang ~prob:(2.0 *. per_tick) ();
      Fault.set plan Fault.Cluster_msg_loss ~prob:0.002 ();
      Fault.set plan Fault.Heartbeat_drop ~prob:0.01 ();
      plan
    end
  in
  let engine = Engine.create () in
  let builds = ref 0 in
  let make_strategy _name sp =
    incr builds;
    match
      Registry.make Registry.Gh ~rng:(Rng.named_split root (Printf.sprintf "c%d" !builds)) sp
    with
    | Ok s -> s
    | Error msg -> failwith ("Cluster_exp: " ^ msg)
  in
  let cluster_config =
    {
      Cluster.n_nodes;
      node =
        {
          Node.total_cores = cores_per_node;
          memory_mb = 65_536;
          idle_timeout = Time_ns.of_sec 600.0;
          dispatch_ns = cfg.Config.dispatch_ns;
          admission = Admission.bounded ~policy:Admission.Edf_drop (10 * cores_per_node);
          brownout = None;
          scrub = None;
        };
      placement;
      failover;
      hb_interval = hb;
      hang_ns = 4 * hb;
      response_timeout;
      max_attempts = 4;
      (* Hedge just under the attempt timeout: only requests already far
         into the fault-free tail grow a second attempt, and a genuinely
         lost one still hedges before the timeout's breaker penalty. *)
      hedge_after = (if failover then Some (3 * response_timeout / 4) else None);
      restart_ns = Time_ns.of_ms 500.0;
      health = Gh_faas.Health.default_config;
      breaker = Gh_faas.Breaker.default_config;
    }
  in
  let cluster =
    Cluster.create ?obs ~rng:(Rng.named_split root "cluster") ~fault engine cluster_config
      ~make_strategy
  in
  Cluster.register cluster ~name:spec.Fm.name spec;
  let controller =
    Controller.create_sink ~ttl_ns:ttl engine
      ~rng:(Rng.named_split root "controller")
      (fun req ~on_response -> Cluster.submit cluster ~name:spec.Fm.name req ~on_response)
  in
  { engine; cluster; controller; spec; arrivals; last_arrival; horizon; ttl }

let launch f ~on_complete =
  let fn = f.spec.Fm.name in
  (* One warm-up request per core at t=0 (no deadline, uncounted) pays the
     fleet's container cold starts before measurement. *)
  for i = 1 to n_nodes * cores_per_node do
    Engine.at f.engine ~time:0 (fun () ->
        Cluster.submit f.cluster ~name:fn
          (Request.make ~id:(2_000_000 + i)
             ~principal:Sweep.principals.(i land 1)
             ~input_kb:f.spec.Fm.input_kb ())
          ~on_response:(fun _ _ -> ()))
  done;
  Cluster.start f.cluster ~until:f.horizon;
  Engine.at_batch f.engine
    (List.mapi
       (fun i at ->
         ( at,
           fun () ->
             Controller.submit f.controller
               (Request.make ~id:(i + 1)
                  ~principal:Sweep.principals.(i land 1)
                  ~input_kb:f.spec.Fm.input_kb ())
               ~on_complete ))
       f.arrivals);
  Engine.run_all f.engine

let measure cfg spec ~rate_per_min ~placement ~failover ~requests =
  (* The seed is shared by the two failover arms: identical arrivals and
     an identical initial fault schedule, so the comparison isolates the
     management plane. *)
  let seed =
    cfg.Config.seed
    lxor Hashtbl.hash ("cluster", spec.Fm.name, Cluster.placement_name placement, rate_per_min)
  in
  let service = Sweep.service_ns cfg Registry.Gh spec ~seed ~salt:0x5eed in
  (* Offered load sized so the fleet minus one node still has burst
     headroom (the failover arms isolate fault handling, not overload —
     Overload_exp covers that), and so the arrival span holds three
     scheduled crashes spaced wider than one detect+restart+rejoin cycle
     (~1.1 s): early enough that most of the stream faces a damaged
     fleet, spread so the failover arm rarely loses the whole fleet at
     once. *)
  let f =
    fleet cfg spec ~seed ~service ~label:"cluster"
      ~load:0.45 ~min_span_s:4.5 ~fault_per_min:rate_per_min
      ~crashes:[ (0, 0.05); (1, 0.35); (2, 0.65) ]
      ~placement ~failover ~requests
  in
  let served_ids = Hashtbl.create 256 in
  let failed_ids = Hashtbl.create 64 in
  let double_served = ref 0 in
  let e2e_ms = ref [] in
  Cluster.set_on_failed f.cluster (fun req -> Hashtbl.replace failed_ids req.Request.id ());
  Controller.set_on_shed f.controller (fun req -> Hashtbl.replace failed_ids req.Request.id ());
  launch f ~on_complete:(fun (c : Controller.completion) ->
      if Hashtbl.mem served_ids c.Controller.request.Request.id then incr double_served
      else begin
        Hashtbl.replace served_ids c.Controller.request.Request.id ();
        e2e_ms := Time_ns.to_ms c.Controller.e2e_ns :: !e2e_ms
      end);
  let s = Cluster.stats f.cluster in
  let offered = List.length f.arrivals in
  let served = Hashtbl.length served_ids in
  let shed_and_served =
    Hashtbl.fold
      (fun id () n -> if Hashtbl.mem served_ids id then n + 1 else n)
      failed_ids 0
  in
  let conservation_residue =
    s.Cluster.node_completions
    - (s.Cluster.served + s.Cluster.wasted_responses + s.Cluster.lost_responses)
  in
  (* With failover off, attempts on dead nodes legitimately never conclude
     (nothing times them out); the residue check only binds the arm that
     promises full accounting. *)
  let inflight_residue =
    if failover then s.Cluster.inflight + s.Cluster.pending_requests else 0
  in
  let duration_s =
    Float.max 1e-9 (Time_ns.to_ms (f.last_arrival - warmup + f.ttl) /. 1000.0)
  in
  let p50_ms, p99_ms = Sweep.p50_p99 !e2e_ms in
  {
    rate_per_min;
    placement;
    failover;
    offered;
    served;
    failed = Hashtbl.length failed_ids;
    availability =
      (if offered = 0 then Float.nan else float_of_int served /. float_of_int offered);
    goodput_rps = float_of_int served /. duration_s;
    p50_ms;
    p99_ms;
    failover_p99_ms = snd (Sweep.p50_p99 s.Cluster.failover_ms);
    retries = s.Cluster.retries;
    hedges = s.Cluster.hedges;
    cancelled = s.Cluster.hedge_cancelled;
    crashes = s.Cluster.crashes;
    hangs = s.Cluster.hangs;
    restarts = s.Cluster.restarts;
    timeouts = s.Cluster.attempt_timeouts;
    wasted = s.Cluster.wasted_responses;
    lost = s.Cluster.lost_responses;
    double_served = !double_served;
    shed_and_served;
    conservation_residue;
    inflight_residue;
  }

let run cfg ?(rates = default_rates) ?(placements = default_placements)
    ?(requests = default_requests)
    (entry : Catalog.entry) =
  List.map
    (fun rate_per_min ->
      {
        rate_per_min;
        rows =
          List.concat_map
            (fun placement ->
              [
                measure cfg entry.Catalog.spec ~rate_per_min ~placement ~failover:true
                  ~requests;
                measure cfg entry.Catalog.spec ~rate_per_min ~placement ~failover:false
                  ~requests;
              ])
            placements;
      })
    rates

(* The CI gate: every way a cell can violate the delivery contract.
   [double_served]: a response delivered twice; [shed_and_served]: a
   request both failed and served; [conservation_residue]: a node
   completion unaccounted for; [inflight_residue]: attempts or requests
   left dangling after drain with failover on. *)
let violations points =
  List.fold_left
    (fun n p ->
      List.fold_left
        (fun n r ->
          n + r.double_served + r.shed_and_served + abs r.conservation_residue
          + r.inflight_residue)
        n p.rows)
    0 points

(* Acceptance on the 1%/min cells (when present): failover on keeps
   availability >= 99% with p99 within 8x the fault-free cell's; failover
   off collapses on the same seeded streams. A NaN p99 on either side
   compares false, so it never fails the inflation check. *)
let acceptance points =
  let rows = List.concat_map (fun (p : point) -> p.rows) points in
  let find ~rate ~failover =
    List.find_opt (fun (r : row) -> r.rate_per_min = rate && r.failover = failover) rows
  in
  match (find ~rate:0.01 ~failover:true, find ~rate:0.01 ~failover:false) with
  | Some on, Some off ->
      let baseline_p99 =
        match find ~rate:0.0 ~failover:true with Some b -> b.p99_ms | None -> Float.nan
      in
      List.filter_map Fun.id
        [
          (if off.availability > 0.90 then
             Some
               (Printf.sprintf "failover-off availability %.2f%% did not collapse (> 90%%)"
                  (100.0 *. off.availability))
           else None);
          (if on.p99_ms > 8.0 *. baseline_p99 then
             Some
               (Printf.sprintf "failover-on p99 %.1f ms > 8x fault-free %.1f ms" on.p99_ms
                  baseline_p99)
           else None);
          (if on.availability < 0.99 then
             Some
               (Printf.sprintf "failover-on availability %.2f%% < 99%%"
                  (100.0 *. on.availability))
           else None);
        ]
  | _ -> []

let gate points =
  match (violations points, acceptance points) with
  | 0, [] -> Ok ()
  | 0, failed -> Error ("ACCEPTANCE FAILED: " ^ String.concat "; " failed)
  | n, _ ->
      Error
        (Printf.sprintf
           "DELIVERY CONTRACT VIOLATION: %d breach(es) — double-serve, shed-and-served, \
            unaccounted completion, or dangling attempt"
           n)

let print ppf (entry : Catalog.entry) points =
  let header =
    [
      "rate/min";
      "placement";
      "fo";
      "offered";
      "served";
      "fail";
      "avail";
      "gp r/s";
      "p50 ms";
      "p99 ms";
      "fo p99";
      "retry";
      "hedge";
      "cancel";
      "crash";
      "restart";
      "tmo";
      "waste";
      "lost";
      "viol";
    ]
  in
  let fmt_opt v = if Float.is_nan v then "-" else Printf.sprintf "%.1f" v in
  let rows =
    List.concat_map
      (fun p ->
        List.map
          (fun (r : row) ->
            [
              Printf.sprintf "%.0f%%" (100.0 *. r.rate_per_min);
              Cluster.placement_name r.placement;
              (if r.failover then "on" else "off");
              string_of_int r.offered;
              string_of_int r.served;
              string_of_int r.failed;
              Printf.sprintf "%.1f%%" (100.0 *. r.availability);
              Printf.sprintf "%.1f" r.goodput_rps;
              fmt_opt r.p50_ms;
              fmt_opt r.p99_ms;
              fmt_opt r.failover_p99_ms;
              string_of_int r.retries;
              string_of_int r.hedges;
              string_of_int r.cancelled;
              string_of_int r.crashes;
              string_of_int r.restarts;
              string_of_int r.timeouts;
              string_of_int r.wasted;
              string_of_int r.lost;
              string_of_int
                (r.double_served + r.shed_and_served + abs r.conservation_residue
               + r.inflight_residue);
            ])
          p.rows)
      points
  in
  Report.table ppf
    ~title:
      (Printf.sprintf
         "Cluster fault tolerance on %s: %d nodes, node crashes/hangs/message loss from \
          the seeded plan, failover (health checks, breakers, restarts, retries, \
          hedging) on vs off over identical request streams. 'viol' must be 0: no \
          double-serve, no shed-and-served, every node completion accounted."
         entry.Catalog.display n_nodes)
    ~header rows

let sweep =
  Sweep.Sweep
    {
      name = "cluster";
      doc =
        "Sweep node-level fault rates through the multi-node fleet with failover (health \
         checks, breakers, restarts, retries, hedging) on and off; exits nonzero on any \
         delivery-contract violation or if failover fails to hold availability.";
      n_doc = "Arrivals per (rate, placement, failover) cell.";
      default_n = default_requests;
      smoke_doc = "Tiny CI run: one placement, rates 0 and 1%/min, few requests.";
      smoke =
        (fun cfg entry ->
          run cfg ~rates:[ 0.0; 0.01 ] ~placements:[ Cluster.Least_loaded ] ~requests:150
            entry);
      run = (fun cfg ~requests entry -> run cfg ~requests entry);
      print;
      gate;
    }
