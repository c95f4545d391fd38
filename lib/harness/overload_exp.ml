(* Overload sweep: open-loop bursty arrivals at a multiple of each
   strategy's measured capacity, with the platform's overload protection
   (deadlines + bounded EDF admission + brownout) on and off.

   The claim under test: with protection on, goodput (completions within
   deadline) plateaus at capacity instead of collapsing, requests that
   cannot make their deadline are shed before they consume a core or a
   restore, and no request is ever served by a non-clean process — even
   while brownout defers Groundhog's restores. With protection off the
   same arrival stream (same seed, same instants) drives the queues to
   divergence and the tail to collapse.

   Determinism: arrivals are keyed by (seed, strategy, utilization) and
   shared between the protected and unprotected runs; shedding is
   policy-deterministic (no randomness), so the whole sweep — including
   every drop decision — replays bit-identically from the seed. *)

module Engine = Gh_sim.Engine
module Rng = Gh_sim.Rng
module Time_ns = Gh_sim.Time_ns
module Registry = Gh_isolation.Registry
module Catalog = Gh_workloads.Catalog
module Synthetic = Gh_workloads.Synthetic
module Fm = Gh_faas.Function_model
module Intf = Gh_faas.Strategy_intf
module Request = Gh_faas.Request
module Principal = Gh_faas.Principal
module Admission = Gh_faas.Admission
module Brownout = Gh_faas.Brownout
module Node = Gh_faas.Node

type row = {
  strategy : Registry.id;
  protected : bool;
  util : float;
  offered : int;
  offered_rps : float;
  completed : int;
  goodput : int;  (** Completed within the deadline budget. *)
  goodput_rps : float;
  shed : int;
  expired : int;
  failed : int;
  deadline_misses : int;  (** Late completions, as counted by the node. *)
  miss_rate : float;  (** Late completions / completions. *)
  p50_ms : float;
  p99_ms : float;
  queue_high_water : int;
  cold_starts : int;
  brownout_escalations : int;
  unsafe_served : int;  (** Dispatches to a non-clean process. Must be 0. *)
  leaked_words : int;  (** Foreign residue words served by an isolating strategy. *)
  shed_served : int;  (** Shed requests that still consumed work. Must be 0. *)
  late_uncounted : int;  (** Late completions the node failed to count. Must be 0. *)
}

type point = { util : float; rows : row list }

let default_strategies = [ Registry.Base; Registry.Gh ]
let default_utils = [ 0.5; 0.8; 1.1; 1.5; 2.0 ]

let default_requests = 240

(* Best-effort tenant carol joins the pair: first to go when brownout
   reaches [Shedding]. *)
let principals =
  Array.append Sweep.principals
    [| Gh_faas.Principal.with_priority (Gh_faas.Principal.make ~id:3 ~name:"carol") 0 |]

type guard_stats = {
  served : (int, unit) Hashtbl.t;
  mutable unsafe : int;
  mutable leaks : int;
}

(* Every dispatch is gated on the strategy's own lifecycle state (as in
   Fault_exp), and additionally on residue: an isolating strategy serving a
   word tagged with another principal's id is a cross-domain leak. Brownout's
   deferred restores must never trip either check. *)
let guard stats (s : Intf.t) =
  {
    s with
    Intf.invoke =
      (fun req ->
        let gated = s.Intf.status () <> None in
        (match s.Intf.status () with
        | Some `Clean | None -> ()
        | Some _ -> stats.unsafe <- stats.unsafe + 1);
        Hashtbl.replace stats.served req.Request.id ();
        let inv = s.Intf.invoke req in
        if gated then
          List.iter
            (fun w ->
              if w <> 0 && not (Principal.owns_word req.Request.principal w) then
                stats.leaks <- stats.leaks + 1)
            inv.Intf.response.Fm.residue;
        inv);
  }

let measure cfg strategy spec ~util ~requests ~protected =
  let seed =
    cfg.Config.seed lxor Hashtbl.hash ("overload", spec.Fm.name, Registry.to_string strategy)
  in
  (* Capacity, the denominator of the utilization sweep. *)
  let service = Sweep.service_ns cfg strategy spec ~seed ~salt:0x5eed in
  let cores = cfg.Config.n_containers in
  let capacity_rps = float_of_int cores *. 1.0e9 /. float_of_int service in
  let rate_rps = util *. capacity_rps in
  (* Deadline budget: generous at light load (queueing headroom) but far
     below the divergence latencies an unbounded queue reaches. *)
  let ttl = max (Time_ns.of_ms 50.0) (8 * service) in
  (* One warm-up request per core at t=0 (no deadline, uncounted) pays the
     container cold starts before measurement; arrivals begin afterwards so
     every cell measures the steady warm pool, not the boot transient. *)
  let warmup = Time_ns.of_sec 30.0 in
  (* Protected and unprotected runs share the arrival stream verbatim. *)
  let arrivals =
    let arng = Rng.create (seed lxor Hashtbl.hash ("arrivals", util)) in
    List.map
      (fun t -> t + warmup)
      (Synthetic.burst ~duty:0.5 ~cycle_s:1.0 arng ~rate_rps ~n:requests)
  in
  let root = Rng.create seed in
  let engine = Engine.create () in
  let stats = { served = Hashtbl.create 256; unsafe = 0; leaks = 0 } in
  let builds = ref 0 in
  let make_strategy _name sp =
    incr builds;
    match
      Registry.make strategy ~rng:(Rng.named_split root (Printf.sprintf "c%d" !builds)) sp
    with
    | Ok s -> guard stats s
    | Error msg -> failwith ("Overload_exp: " ^ msg)
  in
  let node_config =
    {
      Node.total_cores = cores;
      memory_mb = 65_536;
      idle_timeout = Time_ns.of_sec 600.0;
      dispatch_ns = cfg.Config.dispatch_ns;
      recovery = None;
      admission =
        (if protected then Admission.bounded ~policy:Admission.Edf_drop (6 * cores)
         else Admission.unbounded);
      brownout =
        (if protected then
           Some
             {
               Brownout.target_delay_ns = max (Time_ns.of_ms 5.0) (ttl / 3);
               escalate_after = 6;
               recover_after = 8;
               hysteresis = 0.5;
               shed_below_priority = 1;
             }
         else None);
      scrub = None;
    }
  in
  (* Each (strategy, protection, utilization) cell gets its own metric
     namespace so one shared registry can hold the whole sweep. *)
  let metrics_prefix =
    Printf.sprintf "overload.%s.%s.u%.1f." (Registry.to_string strategy)
      (if protected then "prot" else "raw")
      util
  in
  let node =
    Node.create ~obs:(Config.obs cfg) ~metrics_prefix engine node_config ~make_strategy
  in
  let fn = "overload-fn" in
  Node.register node ~name:fn spec;
  let shed_ids = Hashtbl.create 64 in
  Node.set_on_shed node (fun _reason req -> Hashtbl.replace shed_ids req.Request.id ());
  (* id -> (arrival, completion): the experiment's own late-completion
     recount, independent of the node's deadline_misses counter. *)
  let completions = Hashtbl.create 256 in
  for i = 1 to cores do
    Engine.at engine ~time:0 (fun () ->
        Node.submit node ~name:fn
          (Request.make ~id:(2_000_000 + i)
             ~principal:principals.(i mod Array.length principals)
             ~input_kb:spec.Fm.input_kb ()))
  done;
  (* Batch-admit the whole burst in one pass; list order keeps the FIFO
     tie-break identical to the per-arrival [Engine.at] loop it replaces. *)
  Engine.at_batch engine
    (List.mapi
       (fun i at ->
         let id = i + 1 in
         ( at,
           fun () ->
             let req =
               Request.make ~id
                 ~principal:principals.(i mod Array.length principals)
                 ~input_kb:spec.Fm.input_kb
                 ?deadline:(if protected then Some (at + ttl) else None)
                 ()
             in
             Node.submit node ~name:fn req ~on_complete:(fun rq _inv ->
                 Hashtbl.replace completions rq.Request.id (at, Engine.now engine)) ))
       arrivals);
  Engine.run_all engine;
  let offered = List.length arrivals in
  let duration_s =
    let last = List.fold_left max 0 arrivals and first = List.fold_left min max_int arrivals in
    Float.max 1e-9 (Time_ns.to_ms (last - first + ttl) /. 1000.0)
  in
  let completed = Hashtbl.length completions in
  let e2e_ms = ref [] in
  let misses_recounted = ref 0 in
  Hashtbl.iter
    (fun _ (arrival, finish) ->
      e2e_ms := Time_ns.to_ms (finish - arrival) :: !e2e_ms;
      if finish > arrival + ttl then incr misses_recounted)
    completions;
  let goodput = completed - !misses_recounted in
  let shed_served =
    Hashtbl.fold
      (fun id () n -> if Hashtbl.mem stats.served id then n + 1 else n)
      shed_ids 0
  in
  let reported_misses = Node.total_deadline_misses node in
  let late_uncounted = if protected then abs (!misses_recounted - reported_misses) else 0 in
  let failed =
    List.fold_left (fun n (s : Node.fn_stats) -> n + s.Node.failed_requests) 0 (Node.stats node)
  in
  let qhw =
    List.fold_left (fun n (s : Node.fn_stats) -> max n s.Node.queue_high_water) 0
      (Node.stats node)
  in
  let p50_ms, p99_ms = Sweep.p50_p99 !e2e_ms in
  {
    strategy;
    protected;
    util;
    offered;
    offered_rps = rate_rps;
    completed;
    goodput;
    goodput_rps = float_of_int goodput /. duration_s;
    shed = Node.total_shed node;
    expired = Node.total_expired node;
    failed;
    deadline_misses = reported_misses;
    miss_rate =
      (if completed = 0 then 0.0
       else float_of_int !misses_recounted /. float_of_int completed);
    p50_ms;
    p99_ms;
    queue_high_water = qhw;
    cold_starts = Node.total_cold_starts node;
    brownout_escalations = Node.brownout_escalations node;
    unsafe_served = stats.unsafe;
    leaked_words = stats.leaks;
    shed_served;
    late_uncounted;
  }

let run cfg ?(strategies = default_strategies) ?(utils = default_utils)
    ?(requests = default_requests)
    (entry : Catalog.entry) =
  List.map
    (fun util ->
      {
        util;
        rows =
          List.concat_map
            (fun strategy ->
              if not (Registry.supports strategy entry.Catalog.spec) then []
              else
                [
                  measure cfg strategy entry.Catalog.spec ~util ~requests ~protected:true;
                  measure cfg strategy entry.Catalog.spec ~util ~requests ~protected:false;
                ])
            strategies;
      })
    utils

(* The CI gate: every way a run can violate the overload contract, summed.
   [unsafe_served]: a request dispatched into a non-clean process;
   [leaked_words]: cross-principal residue served by an isolating strategy;
   [shed_served]: a shed request that nevertheless consumed work;
   [late_uncounted]: a completion past its deadline the node missed. *)
let violations points =
  List.fold_left
    (fun n p ->
      List.fold_left
        (fun n r -> n + r.unsafe_served + r.leaked_words + r.shed_served + r.late_uncounted)
        n p.rows)
    0 points

let gate points =
  match violations points with
  | 0 -> Ok ()
  | n ->
      Error
        (Printf.sprintf
           "OVERLOAD CONTRACT VIOLATION: %d breach(es) — non-clean serve, leaked residue, \
            shed request consuming work, or uncounted late completion"
           n)

let print ppf (entry : Catalog.entry) points =
  let header =
    [
      "util";
      "strategy";
      "prot";
      "offered";
      "done";
      "goodput";
      "gp r/s";
      "shed";
      "expired";
      "fail";
      "late";
      "p50 ms";
      "p99 ms";
      "q hi";
      "cold";
      "brown";
      "unsafe";
    ]
  in
  let fmt_opt v = if Float.is_nan v then "-" else Printf.sprintf "%.1f" v in
  let rows =
    List.concat_map
      (fun p ->
        List.map
          (fun (r : row) ->
            [
              Printf.sprintf "%.1fx" r.util;
              String.uppercase_ascii (Registry.to_string r.strategy);
              (if r.protected then "on" else "off");
              string_of_int r.offered;
              string_of_int r.completed;
              string_of_int r.goodput;
              Printf.sprintf "%.1f" r.goodput_rps;
              string_of_int r.shed;
              string_of_int r.expired;
              string_of_int r.failed;
              string_of_int r.deadline_misses;
              fmt_opt r.p50_ms;
              fmt_opt r.p99_ms;
              string_of_int r.queue_high_water;
              string_of_int r.cold_starts;
              string_of_int r.brownout_escalations;
              string_of_int (r.unsafe_served + r.leaked_words + r.shed_served);
            ])
          p.rows)
      points
  in
  Report.table ppf
    ~title:
      (Printf.sprintf
         "Overload sweep on %s: bursty open-loop arrivals at a multiple of measured \
          capacity, protection (deadlines + bounded EDF admission + brownout) on vs off. \
          Goodput = completions within deadline; with protection on it plateaus at \
          capacity instead of collapsing. 'unsafe' must be 0: no request is ever served \
          by a non-clean process, shed requests consume no work, late completions are \
          always counted."
         entry.Catalog.display)
    ~header rows

let sweep =
  Sweep.Sweep
    {
      name = "overload";
      doc =
        "Sweep offered load past capacity with overload protection (deadlines, bounded EDF \
         admission, brownout) on and off; exits nonzero if any request was served by a \
         non-clean process, a shed request consumed work, or a late completion went \
         uncounted.";
      n_doc = "Arrivals per (strategy, protection, utilization) cell.";
      default_n = default_requests;
      smoke_doc = "Tiny CI run: two utilization points, few requests.";
      smoke = (fun cfg entry -> run cfg ~utils:[ 0.8; 1.6 ] ~requests:90 entry);
      run = (fun cfg ~requests entry -> run cfg ~requests entry);
      print;
      gate;
    }
