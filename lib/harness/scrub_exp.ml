module Engine = Gh_sim.Engine
module Rng = Gh_sim.Rng
module Time_ns = Gh_sim.Time_ns
module Fault = Gh_sim.Fault
module Registry = Gh_isolation.Registry
module Catalog = Gh_workloads.Catalog
module Fm = Gh_faas.Function_model
module Intf = Gh_faas.Strategy_intf
module Invoker = Gh_faas.Invoker
module Container = Gh_faas.Container
module Manager = Groundhog_core.Manager
module Snapshot = Groundhog_core.Snapshot
module Dedup = Groundhog_core.Dedup
module Cost = Gh_kernel.Cost

type policy = Off | Scrub_only | Sampled of int | Full

let policy_name = function
  | Off -> "off"
  | Scrub_only -> "scrub"
  | Sampled k -> Printf.sprintf "sampled-%d" k
  | Full -> "full"

let default_policies = [ Off; Scrub_only; Sampled 4; Full ]
let default_rates = [ 0.0; 0.02; 0.1 ]
let default_requests = 60
let strategies = Registry.all

type row = {
  strategy : Registry.id;
  rate : float;
  policy : policy;
  offered : int;
  delivered : int;
  corrupted_served : int;
  verify_detections : int;
  scrub_detections : int;
  verified_blocks : int;
  scrubbed_blocks : int;
  detect_ms : float;
  mttr_ms : float;
  quarantined : int;
  replacements : int;
  overhead_ms : float;
  dedup_saved_pages : int option;
  dedup_shared_blocks : int option;
}

type point = { rate : float; policy : policy; rows : row list }

(* The ground-truth oracle, checked at every dispatch: a strategy that can
   prove what its process should contain (eager GH after a real restore,
   CRIU between restores) audits the process against the snapshot hashes.
   [Some `Corrupt] at dispatch means the next response would be computed
   from corrupted state — the event the integrity machinery exists to
   prevent. Strategies without a valid reference ([None]) are exempt. The
   oracle itself reads memory only; it never alters the run it judges. *)
type cell_stats = {
  mutable corrupted_served : int;
  mutable verify_detections : int;
  mutable verified_blocks : int;
  mutable detect_ns : Time_ns.t list;
}

let observe engine stats (s : Intf.t) =
  let born = Engine.now engine in
  {
    s with
    Intf.invoke =
      (fun req ->
        (match s.Intf.audit () with
        | Some (`Corrupt _) -> stats.corrupted_served <- stats.corrupted_served + 1
        | Some `Intact | None -> ());
        let inv = s.Intf.invoke req in
        (match inv.Intf.verify with
        | Intf.Verify_failed _ ->
            stats.verify_detections <- stats.verify_detections + 1;
            stats.detect_ns <- (Engine.now engine - born) :: stats.detect_ns
        | Intf.Verified blocks -> stats.verified_blocks <- stats.verified_blocks + blocks
        | Intf.Unverified -> ());
        inv);
    scrub =
      (fun blocks ->
        match s.Intf.scrub blocks with
        | Intf.Scrub_corrupt why ->
            (* Counted per container below; only the latency sample needs
               the snapshot's birth time, which lives in this closure. *)
            stats.detect_ns <- (Engine.now engine - born) :: stats.detect_ns;
            Intf.Scrub_corrupt why
        | r -> r);
  }

let measure cfg strategy spec ~rate ~policy ~n_containers ~n_requests =
  if not (Registry.supports strategy spec) then None
  else begin
    let seed =
      cfg.Config.seed
      lxor Hashtbl.hash
             ("scrub", spec.Fm.name, Registry.to_string strategy, rate, policy_name policy)
    in
    let root = Rng.create seed in
    let engine = Engine.create () in
    let stats =
      { corrupted_served = 0; verify_detections = 0; verified_blocks = 0; detect_ns = [] }
    in
    let verify =
      match policy with
      | Off | Scrub_only -> Manager.Verify_off
      | Sampled k -> Manager.Verify_sampled k
      | Full -> Manager.Verify_full
    in
    (* One dedup index per cell: both containers of the function register
       their snapshots and share identical blocks. *)
    let dedup = Dedup.create () in
    let builds = Array.make n_containers 0 in
    let make_strategy i =
      let b = builds.(i) in
      builds.(i) <- b + 1;
      (* Corruption sites only: captures can silently flip a bit or tear a
         block in the stored snapshot, restores can silently skip writes.
         Unlike crash faults these never fail the build — that is the
         point: the damage is invisible until something checks hashes. *)
      let fault =
        if rate > 0.0 then
          Fault.uniform ~seed:(Hashtbl.hash (seed, i, b)) ~prob:rate Fault.corruption_sites
        else Fault.none
      in
      match
        Registry.make strategy ~fault ~verify ~dedup
          ~rng:(Rng.named_split root (Printf.sprintf "c%d.%d" i b))
          spec
      with
      | Ok s -> observe engine stats s
      | Error msg -> failwith msg
    in
    let scrub = match policy with Off -> None | _ -> Some Container.default_scrub in
    let invoker =
      Invoker.create ~recovery:(Sweep.recovery spec) ~rng:(Rng.split root) ?scrub engine
        ~n_containers
        ~dispatch_ns:cfg.Config.dispatch_ns ~make_strategy
    in
    let delivered = ref 0 in
    let interval_ns = max (Time_ns.of_ms 1.0) (2 * spec.Fm.exec_ns / n_containers) in
    Engine.at_batch engine
      (List.init n_requests (fun j ->
           let i = j + 1 in
           ( i * interval_ns,
             fun () ->
               let req =
                 Gh_faas.Request.make ~id:i
                   ~principal:Sweep.principals.(i land 1)
                   ~input_kb:spec.Fm.input_kb ()
               in
               Invoker.submit invoker req ~on_response:(fun _ _ -> incr delivered) )));
    Engine.run_all engine;
    let rs = Invoker.recovery_stats invoker in
    let containers = Invoker.containers invoker in
    let scrub_detections =
      Array.fold_left (fun n c -> n + Container.scrub_corruptions c) 0 containers
    in
    let scrubbed_blocks =
      Array.fold_left (fun n c -> n + Container.scrubbed_blocks c) 0 containers
    in
    (* The integrity tax, had it been charged: every audited or scrubbed
       block is [block_pages] page hashes at the modelled per-page rate.
       It is tallied here — never injected into the timeline — which is
       why every verified table in the suite is bit-identical to its
       unverified ancestor. *)
    let overhead_ms =
      Time_ns.to_ms
        ((stats.verified_blocks + scrubbed_blocks)
        * Snapshot.block_pages * Cost.default.Cost.hash_per_page_ns)
    in
    let with_dedup = Dedup.registrations dedup > 0 in
    Some
      {
        strategy;
        rate;
        policy;
        offered = n_requests;
        delivered = !delivered;
        corrupted_served = stats.corrupted_served;
        verify_detections = stats.verify_detections;
        scrub_detections;
        verified_blocks = stats.verified_blocks;
        scrubbed_blocks;
        detect_ms = Sweep.mean_ms stats.detect_ns;
        mttr_ms = Sweep.mean_ms rs.Invoker.mttr_ns;
        quarantined = rs.Invoker.quarantined;
        replacements = rs.Invoker.replacements;
        overhead_ms;
        dedup_saved_pages = (if with_dedup then Some (Dedup.saved_pages dedup) else None);
        dedup_shared_blocks = (if with_dedup then Some (Dedup.shared_blocks dedup) else None);
      }
  end

let run cfg ?(rates = default_rates) ?(policies = default_policies) ?(n_containers = 2)
    ?(requests = default_requests) (entry : Catalog.entry) =
  let points =
    List.concat_map (fun rate -> List.map (fun policy -> (rate, policy)) policies) rates
  in
  Sweep.grid cfg points strategies (fun (rate, policy) strategy ->
      measure cfg strategy entry.Catalog.spec ~rate ~policy ~n_containers ~n_requests:requests)
  |> List.map (fun ((rate, policy), rows) -> { rate; policy; rows })

let protected_corrupted_serves points =
  List.fold_left
    (fun n p ->
      if p.policy = Full then
        List.fold_left (fun n (r : row) -> n + r.corrupted_served) n p.rows
      else n)
    0 points

let unprotected_corrupted_serves points =
  List.fold_left
    (fun n p ->
      if p.policy = Off then
        List.fold_left (fun n (r : row) -> n + r.corrupted_served) n p.rows
      else n)
    0 points

(* Fail-closed twice: no corrupted serve under full verification, and the
   sweep must prove the hazard is real — with verification off and
   corruption injected, the oracle has to catch at least one corrupted
   serve, or the protected zero means nothing. *)
let gate points =
  match protected_corrupted_serves points with
  | 0 ->
      if
        List.exists (fun p -> p.policy = Off && p.rate > 0.0) points
        && unprotected_corrupted_serves points = 0
      then
        Error
          "VACUOUS SWEEP: corruption injected but the unverified baseline served nothing \
           corrupt — the zero under full verification proves nothing"
      else Ok ()
  | corrupt ->
      Error
        (Printf.sprintf
           "INTEGRITY VIOLATION: %d request(s) served from corrupted state under full \
            verification"
           corrupt)

let print ppf (entry : Catalog.entry) points =
  let header =
    [
      "rate";
      "policy";
      "strategy";
      "served";
      "CORRUPT";
      "vdetect";
      "sdetect";
      "vblocks";
      "sblocks";
      "detect ms";
      "MTTR ms";
      "quar";
      "rebuild";
      "tax ms";
      "dedup pg";
    ]
  in
  let fmt_opt v = if Float.is_nan v then "-" else Printf.sprintf "%.1f" v in
  let rows =
    List.concat_map
      (fun p ->
        List.map
          (fun r ->
            [
              Printf.sprintf "%.0f%%" (100.0 *. p.rate);
              policy_name p.policy;
              String.uppercase_ascii (Registry.to_string r.strategy);
              Printf.sprintf "%d/%d" r.delivered r.offered;
              string_of_int r.corrupted_served;
              string_of_int r.verify_detections;
              string_of_int r.scrub_detections;
              string_of_int r.verified_blocks;
              string_of_int r.scrubbed_blocks;
              fmt_opt r.detect_ms;
              fmt_opt r.mttr_ms;
              string_of_int r.quarantined;
              string_of_int r.replacements;
              Printf.sprintf "%.1f" r.overhead_ms;
              (match r.dedup_saved_pages with Some n -> string_of_int n | None -> "-");
            ])
          p.rows)
      points
  in
  Report.table ppf
    ~title:
      (Printf.sprintf
         "Snapshot integrity on %s: corruption rate x verification policy. 'CORRUPT' counts \
          requests dispatched to a process whose restored state no longer matches the \
          snapshot hashes (the oracle; must be 0 under policy 'full'); 'tax ms' is the \
          modelled hashing cost, tallied off the timeline."
         entry.Catalog.display)
    ~header rows

let sweep =
  Sweep.Sweep
    {
      name = "scrub";
      doc =
        "Sweep seeded snapshot-corruption rates against the verification policies (off, \
         scrub-only, sampled, full); exits nonzero if any request is served from corrupted \
         state under full verification, or if the unverified baseline fails to demonstrate \
         the hazard.";
      n_doc = "Requests per (strategy, rate, policy) cell.";
      default_n = default_requests;
      smoke_doc = "Tiny CI run: policies off and full, rates 0 and 5%, few requests.";
      smoke =
        (fun cfg entry -> run cfg ~rates:[ 0.0; 0.05 ] ~policies:[ Off; Full ] ~requests:30 entry);
      run = (fun cfg ~requests entry -> run cfg ~requests entry);
      print;
      gate;
    }
