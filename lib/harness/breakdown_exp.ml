module Rng = Gh_sim.Rng
module Time_ns = Gh_sim.Time_ns
module Registry = Gh_isolation.Registry
module Catalog = Gh_workloads.Catalog
module Breakdown = Groundhog_core.Breakdown
module Fm = Gh_faas.Function_model
module Intf = Gh_faas.Strategy_intf

type result = {
  entry : Catalog.entry;
  mean : Breakdown.t;
  restore_ms : float;
  snapshot_ms : float;
  snapshot_pages : int;
  total_pages : int;
  faasm_reset_ms : float option;
}

let collect_breakdowns strat n input_kb =
  let acc = ref Breakdown.zero in
  let count = ref 0 in
  for i = 0 to n - 1 do
    let req =
      Gh_faas.Request.make ~id:(i + 1) ~principal:Sweep.principals.(i mod 2) ~input_kb ()
    in
    let inv = strat.Intf.invoke req in
    match inv.Intf.breakdown with
    | Some b ->
        acc := Breakdown.add !acc b;
        incr count
    | None -> ()
  done;
  if !count = 0 then Breakdown.zero else Breakdown.scale !acc (1.0 /. float_of_int !count)

let run_one ?(with_faasm = true) cfg (entry : Catalog.entry) =
  let seed = cfg.Config.seed lxor Hashtbl.hash ("breakdown", entry.Catalog.display) in
  let rng = Rng.create seed in
  let n = min (Config.latency_requests_for cfg entry.Catalog.spec) cfg.Config.breakdown_requests in
  let n = max 3 n in
  (* Verified restores (tallied off the timeline): breakdowns identical. *)
  let strategy, state =
    Gh_isolation.Gh.make_with_state ~verify:Groundhog_core.Manager.Verify_full
      ~rng:(Rng.split rng) entry.Catalog.spec
  in
  let mean = collect_breakdowns strategy n entry.Catalog.spec.Fm.input_kb in
  let snapshot = Groundhog_core.Manager.snapshot (Gh_isolation.Gh.manager state) in
  let snapshot_ms, snapshot_pages =
    match snapshot with
    | Some s ->
        ( Time_ns.to_ms s.Groundhog_core.Snapshot.capture_ns,
          s.Groundhog_core.Snapshot.present_pages )
    | None -> (Float.nan, 0)
  in
  let total_pages =
    Gh_mem.Address_space.total_pages
      (Fm.proc (Gh_isolation.Gh.instance state)).Gh_proc.Process.mem
  in
  let faasm_reset_ms =
    if (not with_faasm) || not (Registry.supports Registry.Faasm entry.Catalog.spec) then None
    else begin
      match Registry.make Registry.Faasm ~rng:(Rng.split rng) entry.Catalog.spec with
      | Error _ -> None
      | Ok faasm ->
          let b = collect_breakdowns faasm (max 3 (n / 2)) entry.Catalog.spec.Fm.input_kb in
          Some (Time_ns.to_ms b.Breakdown.total_ns)
    end
  in
  {
    entry;
    mean;
    restore_ms = Time_ns.to_ms mean.Breakdown.total_ns;
    snapshot_ms;
    snapshot_pages;
    total_pages;
    faasm_reset_ms;
  }

(* One cell per entry; the per-entry seed depends only on the display
   name. *)
let run ?with_faasm cfg entries = Sweep.map cfg (run_one ?with_faasm cfg) entries

let print_fig8 ppf results =
  let step_labels = List.map fst (Breakdown.steps Breakdown.zero) in
  let header =
    ("benchmark" :: List.map (fun l -> l ^ "%") step_labels)
    @ [ "restore ms"; "pages K"; "restored K"; "snapshot ms" ]
  in
  let rows =
    List.map
      (fun r ->
        let total = float_of_int (max 1 r.mean.Breakdown.total_ns) in
        let pct (_, ns) = Printf.sprintf "%.1f" (100.0 *. float_of_int ns /. total) in
        (r.entry.Catalog.display :: List.map pct (Breakdown.steps r.mean))
        @ [
            Report.fmt_ms r.restore_ms;
            Printf.sprintf "%.2f" (float_of_int r.total_pages /. 1000.0);
            Printf.sprintf "%.2f" (float_of_int r.mean.Breakdown.pages_restored /. 1000.0);
            Report.fmt_ms r.snapshot_ms;
          ])
      results
  in
  Report.table ppf
    ~title:"Fig 8 — restoration cost breakdown (% of total) + one-time snapshot cost"
    ~header rows

let print_fig6 ppf results =
  let header = [ "benchmark"; "GH restore ms"; "FAASM reset ms" ] in
  let rows =
    List.map
      (fun r ->
        [
          r.entry.Catalog.display;
          Report.fmt_ms r.restore_ms;
          (match r.faasm_reset_ms with Some v -> Report.fmt_ms v | None -> "-");
        ])
      results
  in
  Report.table ppf ~title:"Fig 6 — restoration duration (off the critical path): GH vs FAASM"
    ~header rows
