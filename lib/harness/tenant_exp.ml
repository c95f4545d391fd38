module Engine = Gh_sim.Engine
module Rng = Gh_sim.Rng
module Time_ns = Gh_sim.Time_ns
module Stats = Gh_sim.Stats
module Catalog = Gh_workloads.Catalog
module Fm = Gh_faas.Function_model
module Node = Gh_faas.Node
module Manager = Groundhog_core.Manager

type mode = Base | Gh_eager | Gh_incremental

type result = {
  memory_mb : int;
  mode : mode;
  completed : int;
  cold_starts : int;
  evictions : int;
  mean_e2e_ms : float;
  p95_e2e_ms : float;
  high_water_mb : int;
  shed : int;
  expired : int;
  leftover_queue : int;
}

let mode_to_string = function
  | Base -> "base"
  | Gh_eager -> "gh-eager"
  | Gh_incremental -> "gh-incremental"

(* Short functions whose combined compute demand fits the node's cores, so
   that memory density and cold starts — not raw core saturation — drive
   the differences. For warm Python functions the eager snapshot buffer
   (all present pages) nearly doubles a container's memory, so under a
   tight budget eager Groundhog fits visibly fewer warm containers. *)
let default_functions =
  [
    "version (p)";
    "deltablue (p)";
    "json (p)";
    "telco (p)";
    "pickle (p)";
    "float (p)";
    "atax (c)";
    "jacobi-1d (c)";
  ]

let principals =
  [| Gh_faas.Principal.make ~id:1 ~name:"alice"; Gh_faas.Principal.make ~id:2 ~name:"bob" |]

let make_strategy mode root name spec =
  let rng = Rng.named_split root name in
  match mode with
  | Base -> Gh_isolation.Base.make ~rng spec
  | Gh_eager -> Gh_isolation.Gh.make ~rng spec
  | Gh_incremental -> Gh_isolation.Gh.make ~mode:Manager.Incremental ~rng spec

let run_mode cfg ~memory_mb ~duration_s ~rate_rps entries mode =
  let seed = cfg.Config.seed lxor Hashtbl.hash ("tenant", mode_to_string mode) in
  let root = Rng.create seed in
  let engine = Engine.create () in
  (* Each (budget, mode) cell gets its own metric namespace: a shared
     registry finds counters by name, so cells sharing one would count
     into each other's rows. *)
  let node =
    Node.create ~obs:(Config.obs cfg)
      ~metrics_prefix:(Printf.sprintf "tenant.%dmb.%s." memory_mb (mode_to_string mode))
      engine
      {
        Node.default_config with
        Node.memory_mb;
        idle_timeout = Time_ns.of_sec 8.0;
        dispatch_ns = cfg.Config.dispatch_ns;
      }
      ~make_strategy:(fun name spec -> make_strategy mode root name spec)
  in
  List.iter
    (fun (e : Catalog.entry) -> Node.register node ~name:e.Catalog.display e.Catalog.spec)
    entries;
  (* Independent Poisson arrival streams per function. *)
  let horizon = Time_ns.of_sec duration_s in
  let next_id = ref 0 in
  List.iter
    (fun (e : Catalog.entry) ->
      (* Arrival streams are seeded independently of the mode so all three
         configurations face the identical request sequence. *)
      let arrivals =
        Rng.create (cfg.Config.seed lxor Hashtbl.hash ("tenant-arrivals", e.Catalog.display))
      in
      let rec arrive () =
        if Engine.now engine < horizon then begin
          incr next_id;
          let req =
            Gh_faas.Request.make ~id:!next_id
              ~principal:principals.(!next_id mod 2)
              ~input_kb:e.Catalog.spec.Fm.input_kb ()
          in
          Node.submit node ~name:e.Catalog.display req;
          let gap = int_of_float (Rng.exponential arrivals ~mean:(1.0e9 /. rate_rps)) in
          Engine.schedule engine ~after:(max 1 gap) arrive
        end
      in
      Engine.schedule engine ~after:(Rng.int arrivals (Time_ns.of_ms 50.0)) arrive)
    entries;
  Engine.run engine ~until:(horizon + Time_ns.of_sec 10.0);
  let stats = Node.stats node in
  let latencies =
    Array.of_list (List.concat_map (fun (s : Node.fn_stats) -> s.Node.e2e_ms) stats)
  in
  let summary = if Array.length latencies = 0 then None else Some (Stats.summarize latencies) in
  {
    memory_mb;
    mode;
    completed = List.fold_left (fun n (s : Node.fn_stats) -> n + s.Node.completed) 0 stats;
    cold_starts = Node.total_cold_starts node;
    evictions = Node.total_evictions node;
    mean_e2e_ms = (match summary with Some s -> s.Stats.mean | None -> Float.nan);
    p95_e2e_ms = (match summary with Some s -> s.Stats.p95 | None -> Float.nan);
    high_water_mb = Node.memory_high_water_mb node;
    shed = Node.total_shed node;
    expired = Node.total_expired node;
    leftover_queue = List.fold_left (fun n (s : Node.fn_stats) -> n + s.Node.queue_len) 0 stats;
  }

let run cfg ?(memory_budgets_mb = [ 512; 288; 224 ]) ?(duration_s = 30.0) ?(rate_rps = 4.0)
    entries =
  List.concat_map
    (fun memory_mb ->
      List.map
        (run_mode cfg ~memory_mb ~duration_s ~rate_rps entries)
        [ Base; Gh_eager; Gh_incremental ])
    memory_budgets_mb

let print ppf results =
  let rows =
    List.map
      (fun r ->
        [
          string_of_int r.memory_mb;
          mode_to_string r.mode;
          string_of_int r.completed;
          string_of_int r.cold_starts;
          string_of_int r.evictions;
          Report.fmt_ms r.mean_e2e_ms;
          Report.fmt_ms r.p95_e2e_ms;
          string_of_int r.high_water_mb;
          string_of_int r.shed;
          string_of_int r.expired;
          string_of_int r.leftover_queue;
        ])
      results
  in
  Report.table ppf
    ~title:
      "Multi-tenant node: isolation vs container density (8 functions, shared cores and a \
       tight memory budget, cold starts and idle eviction)"
    ~header:
      [
        "memory MB";
        "mode";
        "completed";
        "cold starts";
        "evictions";
        "mean e2e ms";
        "p95 e2e ms";
        "mem high-water MB";
        "shed";
        "expired";
        "still queued";
      ]
    rows
