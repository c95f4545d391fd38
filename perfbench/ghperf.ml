(* ghperf: one run of one benchmark workload, in its own process.

     ghperf.exe WORKLOAD --seed N [--trace] [--out DIR] [--setup-only]

   WORKLOAD is figures-serial, figures-parallel, figures-observed or
   fleet-faults. The process builds its inputs, runs the timed section
   (sweeps, rendering, gate checks, exports) and prints one JSON record
   on stdout: host wall time and allocation of the timed section, peak
   RSS, and a digest and status per operation, which perfbench/run.py
   checks against the committed references. With --trace the same
   operations run through the traced twin and the record also carries
   the per-layer split. --setup-only stops after building the inputs. *)

open Gh_harness
module Json = Gh_sim.Json
module Registry = Gh_isolation.Registry
module Catalog = Gh_workloads.Catalog

type op = { name : string; status : string; detail : string; digest : string }

let md5 s = Digest.to_hex (Digest.string s)

(* An operation fails if it raises or trips its gate; either way its
   output (or exception) is digested so the references pin failures too. *)
let op_of name = function
  | Ok (output, None) -> { name; status = "ok"; detail = ""; digest = md5 output }
  | Ok (output, Some why) -> { name; status = "gate"; detail = why; digest = md5 output }
  | Error e ->
      let msg = Printexc.to_string e in
      { name; status = "raise"; detail = msg; digest = md5 msg }

(* Layer hooks: identities for the untraced run, {!Prof} spans for the
   twin. *)
type hooks = {
  sweep : 'a. string -> (unit -> 'a) -> 'a;
  cell : 'a. (unit -> 'a) -> 'a;
  render : 'a. (unit -> 'a) -> 'a;
  check : 'a. (unit -> 'a) -> 'a;
  export : 'a. (unit -> 'a) -> 'a;
}

let plain =
  {
    sweep = (fun _ f -> f ());
    cell = (fun f -> f ());
    render = (fun f -> f ());
    check = (fun f -> f ());
    export = (fun f -> f ());
  }

let traced =
  {
    sweep = Prof.sweep;
    cell = Prof.cell;
    render = Prof.render;
    check = Prof.check;
    export = Prof.export;
  }

let to_string h f =
  h.render (fun () ->
      let buf = Buffer.create 4096 in
      let ppf = Format.formatter_of_buffer buf in
      f ppf;
      Format.pp_print_flush ppf ();
      Buffer.contents buf)

(* -- figures-* -- *)

(* One operation per section of [Experiments.run_all], rendered exactly as
   [Experiments.run_list] renders it (header, then the experiment into
   its own buffer), so the concatenation is the run-all report. *)
let figures_ops h section =
  List.map
    (fun id ->
      let name = Experiments.to_string id in
      let result =
        match
          to_string h (fun ppf ->
              Format.fprintf ppf "@.#### %s: %s@." name (Experiments.describe id);
              section id ppf)
        with
        | text -> Ok text
        | exception e -> Error e
      in
      (h.check (fun () -> op_of name (Result.map (fun t -> (t, None)) result)), result))
    Experiments.all

type collectors = {
  spans : Gh_sim.Span.t;
  metrics : Gh_sim.Metrics.t;
  series : Gh_sim.Timeseries.t;
  slos : Gh_sim.Slo.t list;
}

(* What `gh-bench run all --trace-out --metrics-out --series-out --slo`
   attaches. *)
let collectors () =
  let metrics = Gh_sim.Metrics.create () in
  {
    spans = Gh_sim.Span.create ();
    metrics;
    series = Gh_sim.Timeseries.create metrics;
    slos = Gh_sim.Slo.standard ~metrics ();
  }

let write_file path content =
  Out_channel.with_open_bin path (fun oc -> output_string oc content)

(* Export every collector as the CLI does, then gate the trace. The
   exported bytes are not pinned: only the span tree's closure and the
   presence of every export are. *)
let export_ops h c ~out =
  let exported =
    match
      h.export (fun () ->
          let trace = Gh_sim.Span.chrome_json c.spans in
          write_file (Filename.concat out "trace.json") trace;
          let metrics = to_string plain (fun ppf -> Gh_sim.Metrics.render ppf c.metrics) in
          write_file (Filename.concat out "metrics.txt") metrics;
          Gh_sim.Timeseries.flush c.series ~now:0;
          let series = to_string plain (fun ppf -> Gh_sim.Timeseries.render_prom ppf c.series) in
          write_file (Filename.concat out "series.txt") series;
          let slo = Json.to_string (Json.List (List.map Gh_sim.Slo.to_json c.slos)) in
          write_file (Filename.concat out "slo.json") slo;
          (String.length trace, [ metrics; series; slo ]))
    with
    | v -> Ok v
    | exception e -> Error e
  in
  let gate =
    h.check (fun () ->
        Result.map
          (fun (_, docs) ->
            let gate =
              match Gh_sim.Span.check c.spans with
              | Error msg -> Some ("span tree: " ^ msg)
              | Ok () when Gh_sim.Span.count c.spans = 0 -> Some "no spans recorded"
              | Ok () when List.exists (fun d -> d = "") docs -> Some "empty export"
              | Ok () -> None
            in
            ("", gate))
          exported)
  in
  let trace_bytes = match exported with Ok (n, _) -> n | Error _ -> 0 in
  (op_of "exports" gate, trace_bytes)

(* -- fleet-faults -- *)

let fleet_requests = 2000
let scrub_requests = 400

let fleet_ops h cfg (entry : Catalog.entry) =
  let spec = entry.Catalog.spec in
  let offered = ref 0 in
  let print f = to_string h f in
  (* One sweep cell; [f] returns [None] for an unsupported combination,
     which is not an operation. *)
  let attempt name f =
    h.cell (fun () ->
        match f () with
        | None -> None
        | Some r -> Some (op_of name (Ok r))
        | exception e -> Some (op_of name (Error e)))
  in
  let gate n what = if n = 0 then None else Some (Printf.sprintf "%s=%d" what n) in
  let fault =
    h.sweep "fault" (fun () ->
        List.concat_map
          (fun rate ->
            List.filter_map
              (fun s ->
                attempt (Printf.sprintf "fault/%g/%s" rate (Registry.to_string s)) (fun () ->
                    Fault_exp.measure cfg s spec ~fault_rate:rate ~n_containers:2
                      ~n_requests:fleet_requests
                    |> Option.map (fun (row : Fault_exp.row) ->
                           offered := !offered + row.offered;
                           let point = { Fault_exp.fault_rate = rate; rows = [ row ] } in
                           ( print (fun ppf -> Fault_exp.print ppf entry [ point ]),
                             gate row.unsafe_served "unsafe_served" ))))
              Fault_exp.strategies)
          Fault_exp.default_rates)
  in
  let overload =
    h.sweep "overload" (fun () ->
        List.concat_map
          (fun util ->
            List.filter_map
              (fun s ->
                attempt (Printf.sprintf "overload/%g/%s" util (Registry.to_string s))
                  (fun () ->
                    let points =
                      Overload_exp.run cfg ~strategies:[ s ] ~utils:[ util ]
                        ~requests:fleet_requests entry
                    in
                    if List.for_all (fun (p : Overload_exp.point) -> p.rows = []) points then None
                    else begin
                      List.iter
                        (fun (p : Overload_exp.point) ->
                          List.iter
                            (fun (r : Overload_exp.row) -> offered := !offered + r.offered)
                            p.rows)
                        points;
                      Some
                        ( print (fun ppf -> Overload_exp.print ppf entry points),
                          gate (Overload_exp.violations points) "violations" )
                    end))
              Overload_exp.default_strategies)
          Overload_exp.default_utils)
  in
  let cluster =
    h.sweep "cluster" (fun () ->
        List.concat_map
          (fun rate ->
            List.concat_map
              (fun placement ->
                List.filter_map
                  (fun failover ->
                    attempt
                      (Printf.sprintf "cluster/%g/%s/%s" rate
                         (Gh_faas.Cluster.placement_name placement)
                         (if failover then "failover" else "no-failover"))
                      (fun () ->
                        let row =
                          Cluster_exp.measure cfg spec ~rate_per_min:rate ~placement ~failover
                            ~requests:fleet_requests
                        in
                        offered := !offered + row.Cluster_exp.offered;
                        let points = [ { Cluster_exp.rate_per_min = rate; rows = [ row ] } ] in
                        Some
                          ( print (fun ppf -> Cluster_exp.print ppf entry points),
                            gate (Cluster_exp.violations points) "violations" )))
                  [ true; false ])
              Cluster_exp.default_placements)
          Cluster_exp.default_rates)
  in
  let scrub_points = ref [] in
  let scrub =
    h.sweep "scrub" (fun () ->
        let cells =
          List.concat_map
            (fun rate ->
              List.concat_map
                (fun policy ->
                  List.filter_map
                    (fun s ->
                      attempt
                        (Printf.sprintf "scrub/%g/%s/%s" rate (Scrub_exp.policy_name policy)
                           (Registry.to_string s))
                        (fun () ->
                          Scrub_exp.measure cfg s spec ~rate ~policy ~n_containers:2
                            ~n_requests:scrub_requests
                          |> Option.map (fun (row : Scrub_exp.row) ->
                                 offered := !offered + row.offered;
                                 let point = { Scrub_exp.rate; policy; rows = [ row ] } in
                                 scrub_points := point :: !scrub_points;
                                 ( print (fun ppf -> Scrub_exp.print ppf entry [ point ]),
                                   gate (Scrub_exp.protected_corrupted_serves [ point ])
                                     "protected_corrupted_serves" ))))
                    Scrub_exp.strategies)
                Scrub_exp.default_policies)
            Scrub_exp.default_rates
        in
        (* The sweep must also show the hazard it closes: with checking off
           and corruption injected, some request is served corrupted. *)
        let hazard =
          attempt "scrub/hazard" (fun () ->
              let n = Scrub_exp.unprotected_corrupted_serves !scrub_points in
              Some
                ( string_of_int n,
                  if n > 0 then None else Some "unprotected_corrupted_serves=0" ))
        in
        cells @ Option.to_list hazard)
  in
  let slo =
    h.sweep "slo" (fun () ->
        List.concat_map
          (fun fault ->
            List.filter_map
              (fun load ->
                attempt (Printf.sprintf "slo/%g/%g" fault load) (fun () ->
                    let points =
                      Slo_exp.run cfg ~fault_rates:[ fault ] ~load_factors:[ load ]
                        ~requests:fleet_requests entry
                    in
                    List.iter
                      (fun (p : Slo_exp.point) ->
                        List.iter (fun (r : Slo_exp.row) -> offered := !offered + r.offered) p.rows)
                      points;
                    Some
                      ( print (fun ppf -> Slo_exp.print ppf entry points),
                        gate (Slo_exp.violations points) "violations" )))
              Slo_exp.default_load_factors)
          Slo_exp.default_fault_rates)
  in
  (fault @ overload @ cluster @ scrub @ slo, !offered)

(* -- the process -- *)

let workloads = [ "figures-serial"; "figures-parallel"; "figures-observed"; "fleet-faults" ]

let peak_rss_mib () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_lines with
  | lines ->
      List.find_map
        (fun l ->
          match String.split_on_char ':' l with
          | [ "VmHWM"; v ] ->
              Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.0)
          | _ -> None)
        lines
      |> Option.value ~default:0.0
  | exception Sys_error _ -> 0.0

let num f = if Float.is_finite f then Json.Float f else Json.Null

let usage () =
  prerr_endline
    "usage: ghperf.exe (figures-serial|figures-parallel|figures-observed|fleet-faults) \
     --seed N [--trace] [--out DIR] [--setup-only]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse (w, seed, trace, out, setup) = function
    | [] -> (w, seed, trace, out, setup)
    | "--seed" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n -> parse (w, Some n, trace, out, setup) rest
        | None -> usage ())
    | "--trace" :: rest -> parse (w, seed, true, out, setup) rest
    | "--out" :: d :: rest -> parse (w, seed, trace, d, setup) rest
    | "--setup-only" :: rest -> parse (w, seed, trace, out, true) rest
    | x :: rest when w = None && List.mem x workloads -> parse (Some x, seed, trace, out, setup) rest
    | _ -> usage ()
  in
  let workload, seed, trace, out, setup_only = parse (None, None, false, ".", false) args in
  let workload, seed = match (workload, seed) with Some w, Some s -> (w, s) | _ -> usage () in
  let host_cores = Gh_sim.Domain_pool.recommended_jobs () in
  let base = { Config.quick with Config.seed } in
  let observed = if workload = "figures-observed" then Some (collectors ()) else None in
  let cfg =
    match (workload, observed) with
    | "figures-serial", _ | "fleet-faults", _ -> { base with Config.jobs = 1 }
    | _, None -> { base with Config.jobs = host_cores }
    | _, Some c ->
        {
          base with
          Config.jobs = host_cores;
          spans = Some c.spans;
          metrics = Some c.metrics;
          series = Some c.series;
          slos = c.slos;
        }
  in
  let entry = Catalog.find "deltablue (p)" in
  if setup_only then exit 0;
  let h = if trace then traced else plain in
  if trace then Prof.Gc_events.start ();
  let t0 = Prof.now_ns () and cpu0 = Sys.time () in
  let timed () =
    match workload with
    | "fleet-faults" -> (
        match entry with
        | None -> failwith "catalog has no deltablue (p)"
        | Some entry ->
            let ops, offered = fleet_ops h cfg entry in
            (ops, "", offered, 0))
    | _ ->
        let section =
          if trace then Twin.section cfg
          else
            let cache = Experiments.cache cfg in
            fun id ppf -> Experiments.run ~cache id cfg ppf
        in
        let sections = figures_ops h section in
        let report =
          String.concat "" (List.map (fun (_, r) -> Result.value r ~default:"") sections)
        in
        let report_md5 = h.check (fun () -> md5 report) in
        let ops = List.map fst sections in
        (match observed with
        | None -> (ops, report_md5, 0, 0)
        | Some c ->
            let op, trace_bytes = export_ops h c ~out in
            (ops @ [ op ], report_md5, 0, trace_bytes))
  in
  let ops, report_md5, offered, trace_bytes =
    if trace then
      Prof.span Prof.Root (fun () ->
          let r = timed () in
          Prof.Gc_events.poll ();
          r)
    else timed ()
  in
  let wall_ns = Prof.now_ns () - t0 and cpu_s = Sys.time () -. cpu0 in
  (* Totals from the main domain after every pool has joined: OCaml 5.1
     folds exited domains into [quick_stat], so each word counts once. *)
  let st = Gc.quick_stat () in
  let alloc = st.Gc.minor_words +. st.Gc.major_words -. st.Gc.promoted_words in
  let layers =
    if not trace then []
    else begin
      let s = Prof.summarize () in
      Prof.write_spans (Filename.concat out "spans.tsv");
      let fleet_s =
        List.fold_left
          (fun a (n, v, _) ->
            if List.mem n (List.map (Printf.sprintf "harness.%s_s")
                             [ "fault"; "overload"; "cluster"; "scrub"; "slo" ])
            then a +. v
            else a)
          0.0 s.Prof.metrics
      in
      let spans = match observed with Some c -> Gh_sim.Span.count c.spans | None -> 0 in
      let metrics =
        s.Prof.metrics
        @ [
            ("obs.spans", float_of_int spans, "count");
            ("obs.trace_mib", float_of_int trace_bytes /. 1048576.0, "MiB");
            ("fleet.offered", float_of_int offered, "count");
            ("fleet.us_per_offered", Prof.ratio (fleet_s *. 1e6) (float_of_int offered), "us");
          ]
      in
      [
        ( "layers",
          Json.Assoc (List.map (fun (n, v, u) -> (n, Json.List [ num v; Json.String u ])) metrics)
        );
        ("domain_s", num s.Prof.domain_s);
        ("residual_s", num s.Prof.residual_s);
        ("lost_events", Json.Int s.Prof.lost_events);
      ]
    end
  in
  let record =
    Json.Assoc
      ([
         ("workload", Json.String workload);
         ("seed", Json.Int seed);
         ("profile", Json.String "quick");
         ("jobs", Json.Int cfg.Config.jobs);
         ("effective_jobs", Json.Int (Config.effective_jobs cfg));
         ("host_cores", Json.Int host_cores);
         ("ocaml", Json.String Sys.ocaml_version);
         ("traced", Json.Bool trace);
         ("wall_s", num (float_of_int wall_ns /. 1e9));
         ("cpu_s", num cpu_s);
         ("alloc_mwords", num (alloc /. 1e6));
         ("major_mwords", num (st.Gc.major_words /. 1e6));
         ("peak_rss_mib", num (peak_rss_mib ()));
         ("report_md5", Json.String report_md5);
         ("offered", Json.Int offered);
         ( "ops",
           Json.List
             (List.map
                (fun o ->
                  Json.Assoc
                    [
                      ("name", Json.String o.name);
                      ("status", Json.String o.status);
                      ("detail", Json.String o.detail);
                      ("digest", Json.String o.digest);
                    ])
                ops) );
       ]
      @ layers)
  in
  print_endline (Json.to_string record)
