module Rng = Gh_sim.Rng
module Time_ns = Gh_sim.Time_ns
module Catalog = Gh_workloads.Catalog
module Intf = Gh_faas.Strategy_intf
module Gh = Gh_isolation.Gh
module Manager = Groundhog_core.Manager
module Snapshot = Groundhog_core.Snapshot
module Incremental = Groundhog_core.Incremental
module Fm = Gh_faas.Function_model
module Account = Gh_sim.Account

type row = {
  entry : Catalog.entry;
  snapshot_ms : float;
  present_pages : int;
  buffer_mb : float;
  init_ms : float;
  incr_capture_ms : float;
  incr_buffer_mb : float;
}

let mb_of_pages pages = float_of_int pages *. 4096.0 /. 1048576.0

(* Serve a few requests against an incremental-snapshot manager and report
   (capture ms, manager buffer MB after the requests). *)
let incremental_probe cfg (entry : Catalog.entry) =
  let seed = cfg.Config.seed lxor Hashtbl.hash ("snapshot-incr", entry.Catalog.display) in
  let rng = Rng.create seed in
  let inst = Fm.build entry.Catalog.spec in
  ignore (Fm.boot inst ~fault:Gh_sim.Fault.none rng);
  let mgr = Manager.create ~mode:Manager.Incremental (Fm.proc inst) in
  let capture_ns = Manager.take_snapshot_exn mgr in
  let n = max 3 (min 8 cfg.Config.breakdown_requests) in
  for i = 1 to n do
    let req =
      Gh_faas.Request.make ~id:i
        ~principal:(Gh_faas.Principal.make ~id:(1 + (i mod 2)) ~name:"p")
        ~input_kb:entry.Catalog.spec.Fm.input_kb ()
    in
    ignore (Fm.invoke inst (Account.create ()) rng ~post_restore:(i > 1) req);
    Manager.mark_dirty mgr;
    ignore (Manager.restore_exn mgr)
  done;
  (Time_ns.to_ms capture_ns, mb_of_pages (Manager.buffer_pages mgr))

(* Per-entry cells (seeds hash the display name), in catalog order, so
   [print]'s sort sees the same list. *)
let run cfg entries =
  Sweep.map cfg
    (fun (entry : Catalog.entry) ->
      let seed = cfg.Config.seed lxor Hashtbl.hash ("snapshot", entry.Catalog.display) in
      let strategy, state = Gh.make_with_state ~rng:(Rng.create seed) entry.Catalog.spec in
      let snap = Option.get (Manager.snapshot (Gh.manager state)) in
      let incr_capture_ms, incr_buffer_mb = incremental_probe cfg entry in
      {
        entry;
        snapshot_ms = Time_ns.to_ms snap.Snapshot.capture_ns;
        present_pages = snap.Snapshot.present_pages;
        buffer_mb = mb_of_pages snap.Snapshot.present_pages;
        init_ms = Time_ns.to_ms strategy.Intf.init_ns;
        incr_capture_ms;
        incr_buffer_mb;
      })
    entries

let print ppf rows =
  let sorted = List.sort (fun a b -> compare a.present_pages b.present_pages) rows in
  let table_rows =
    List.map
      (fun r ->
        [
          r.entry.Catalog.display;
          string_of_int r.present_pages;
          Printf.sprintf "%.1f" r.buffer_mb;
          Report.fmt_ms r.snapshot_ms;
          Report.fmt_ms r.init_ms;
          Report.fmt_ms r.incr_capture_ms;
          Printf.sprintf "%.1f" r.incr_buffer_mb;
        ])
      sorted
  in
  Report.table ppf
    ~title:
      "Snapshotting overhead (§5.5): eager capture vs the proposed incremental (CoW-salvage) \
       snapshots (sorted by footprint)"
    ~header:
      [
        "benchmark";
        "present pages";
        "eager MB";
        "eager ms";
        "container init ms";
        "incr capture ms";
        "incr MB (after reqs)";
      ]
    table_rows
