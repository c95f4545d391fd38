module Engine = Gh_sim.Engine
module Rng = Gh_sim.Rng
module Time_ns = Gh_sim.Time_ns
module Fault = Gh_sim.Fault
module Registry = Gh_isolation.Registry
module Catalog = Gh_workloads.Catalog
module Fm = Gh_faas.Function_model
module Intf = Gh_faas.Strategy_intf
module Invoker = Gh_faas.Invoker

type row = {
  strategy : Registry.id;
  fault_rate : float;
  offered : int;
  delivered : int;
  crashed : int;
  failed : int;  (** Abandoned after the retry budget, plus lost in wedges. *)
  timeouts : int;
  retries : int;
  quarantined : int;
  replacements : int;
  unsafe_served : int;
  availability : float;
  goodput_rps : float;
  mttr_ms : float;
  p99_ms : float;
}

type point = { fault_rate : float; rows : row list }

let strategies = [ Registry.Base; Registry.Gh; Registry.Gh_nop; Registry.Fork ]
let default_rates = [ 0.0; 1e-4; 1e-3; 1e-2 ]
let default_requests = 120

(* The fail-closed checker: every dispatch is gated on the strategy's own
   lifecycle state. A strategy without one (fork, base) reports [None] and
   is exempt — it has no provably-clean notion to violate. *)
let guard unsafe (s : Intf.t) =
  {
    s with
    Intf.invoke =
      (fun req ->
        (match s.Intf.status () with
        | Some `Clean | None -> ()
        | Some _ -> incr unsafe);
        s.Intf.invoke req);
  }

let measure cfg strategy spec ~fault_rate ~n_containers ~n_requests =
  if not (Registry.supports strategy spec) then None
  else begin
    let seed =
      cfg.Config.seed
      lxor Hashtbl.hash ("fault", spec.Fm.name, Registry.to_string strategy, fault_rate)
    in
    let root = Rng.create seed in
    let engine = Engine.create () in
    let unsafe = ref 0 in
    let builds = Array.make n_containers 0 in
    let make_strategy i =
      let b = builds.(i) in
      builds.(i) <- b + 1;
      let attempt a =
        let fault =
          if fault_rate > 0.0 then
            (* Loud sites only: every fault here aborts its operation and
               surfaces, which is what the fail-closed gate is about. The
               silent corruption sites complete "successfully" and are
               undetectable without hash verification — they get their own
               sweep ({!Scrub_exp}), where the oracle can call them out. *)
            Fault.uniform
              ~seed:(Hashtbl.hash (seed, i, b, a))
              ~prob:fault_rate
              (Fault.restore_sites @ [ Fault.Fn_crash; Fault.Fn_hang ])
          else Fault.none
        in
        Registry.make strategy ~fault
          ~rng:(Rng.named_split root (Printf.sprintf "c%d.%d.%d" i b a))
          spec
      in
      if b = 0 then begin
        (* Deploy-time builds are retried by the platform until one sticks
           (deterministically: the retry index feeds the plan seed). *)
        let rec go a =
          match attempt a with
          | Ok s -> guard unsafe s
          | Error _ when a < 50 -> go (a + 1)
          | Error msg -> failwith msg
        in
        go 0
      end
      else
        (* Cold-restart rebuilds surface their faults to the recovery
           pipeline, which paces retries with backoff. *)
        match attempt 0 with Ok s -> guard unsafe s | Error msg -> failwith msg
    in
    let invoker =
      Invoker.create ~recovery:(Sweep.recovery spec) ~rng:(Rng.split root) engine ~n_containers
        ~dispatch_ns:cfg.Config.dispatch_ns ~make_strategy
    in
    let delivered = ref 0 and crashed = ref 0 in
    let e2e_ms = ref [] in
    let interval_ns = max (Time_ns.of_ms 1.0) (2 * spec.Fm.exec_ns / n_containers) in
    (* Batch-admit the arrival schedule; list order preserves the seq
       tie-break of the former per-request [Engine.at] loop. *)
    Engine.at_batch engine
      (List.init n_requests (fun j ->
           let i = j + 1 in
           let at = i * interval_ns in
           ( at,
             fun () ->
               let req =
                 Gh_faas.Request.make ~id:i
                   ~principal:Sweep.principals.(i land 1)
                   ~input_kb:spec.Fm.input_kb ()
               in
               Invoker.submit invoker req ~on_response:(fun _ inv ->
                   match inv.Intf.outcome with
                   | Intf.Crashed -> incr crashed
                   | Intf.Completed | Intf.Poisoned | Intf.Hung ->
                       (* [Poisoned] is a delivered response whose deferred
                          restore then failed; [Hung] never reaches here. *)
                       incr delivered;
                       e2e_ms := Time_ns.to_ms (Engine.now engine - at) :: !e2e_ms) )));
    Engine.run_all engine;
    let duration_s = Time_ns.to_ms (Engine.now engine) /. 1000.0 in
    let rs = Invoker.recovery_stats invoker in
    let lost = n_requests - !delivered - !crashed - rs.Invoker.failed_requests in
    Some
      {
        strategy;
        fault_rate;
        offered = n_requests;
        delivered = !delivered;
        crashed = !crashed;
        failed = rs.Invoker.failed_requests + max 0 lost;
        timeouts = rs.Invoker.timeouts;
        retries = rs.Invoker.retries;
        quarantined = rs.Invoker.quarantined;
        replacements = rs.Invoker.replacements;
        unsafe_served = !unsafe;
        availability =
          (if n_requests = 0 then Float.nan
           else float_of_int !delivered /. float_of_int n_requests);
        goodput_rps =
          (if duration_s <= 0.0 then 0.0 else float_of_int !delivered /. duration_s);
        mttr_ms = Sweep.mean_ms rs.Invoker.mttr_ns;
        p99_ms = snd (Sweep.p50_p99 !e2e_ms);
      }
  end

let run cfg ?(rates = default_rates) ?(requests = default_requests) (entry : Catalog.entry) =
  Sweep.grid cfg rates strategies (fun fault_rate strategy ->
      measure cfg strategy entry.Catalog.spec ~fault_rate ~n_containers:2 ~n_requests:requests)
  |> List.map (fun (fault_rate, rows) -> { fault_rate; rows })

(* The gate: any request served by a non-clean process. *)
let gate points =
  match
    List.fold_left
      (fun n p -> List.fold_left (fun n r -> n + r.unsafe_served) n p.rows)
      0 points
  with
  | 0 -> Ok ()
  | unsafe ->
      Error
        (Printf.sprintf "FAIL-CLOSED VIOLATION: %d request(s) served by a non-clean process"
           unsafe)

let print ppf (entry : Catalog.entry) points =
  let header =
    [
      "fault rate";
      "strategy";
      "avail";
      "goodput r/s";
      "p99 ms";
      "MTTR ms";
      "timeout";
      "retry";
      "fail";
      "quar";
      "rebuild";
      "unsafe";
    ]
  in
  let fmt_opt v = if Float.is_nan v then "-" else Printf.sprintf "%.1f" v in
  let rows =
    List.concat_map
      (fun p ->
        List.map
          (fun r ->
            [
              Printf.sprintf "%.2f%%" (100.0 *. p.fault_rate);
              String.uppercase_ascii (Registry.to_string r.strategy);
              Printf.sprintf "%.1f%%" (100.0 *. r.availability);
              Printf.sprintf "%.1f" r.goodput_rps;
              fmt_opt r.p99_ms;
              fmt_opt r.mttr_ms;
              string_of_int r.timeouts;
              string_of_int r.retries;
              string_of_int r.failed;
              string_of_int r.quarantined;
              string_of_int r.replacements;
              string_of_int r.unsafe_served;
            ])
          p.rows)
      points
  in
  Report.table ppf
    ~title:
      (Printf.sprintf
         "Fault injection on %s: availability, goodput, MTTR and p99 vs fault rate — \
          fail-closed recovery (kill, cold-restart, re-snapshot; quarantine after repeated \
          failures). 'unsafe' counts requests served by a non-clean process and must be 0."
         entry.Catalog.display)
    ~header rows

let sweep =
  Sweep.Sweep
    {
      name = "fault";
      doc =
        "Sweep seeded fault rates through the fail-closed recovery pipeline; exits nonzero \
         if any request was served by a non-clean process.";
      n_doc = "Requests per (strategy, rate) cell.";
      default_n = default_requests;
      smoke_doc = "Tiny CI run: one nonzero rate, few requests.";
      smoke = (fun cfg entry -> run cfg ~rates:[ 0.0; 1e-3 ] ~requests:30 entry);
      run = (fun cfg ~requests entry -> run cfg ~requests entry);
      print;
      gate;
    }
