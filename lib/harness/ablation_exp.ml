module Rng = Gh_sim.Rng
module Time_ns = Gh_sim.Time_ns
module Account = Gh_sim.Account
module Cost = Gh_kernel.Cost
module Fm = Gh_faas.Function_model
module Manager = Groundhog_core.Manager
module Breakdown = Groundhog_core.Breakdown
module Microbench = Gh_workloads.Microbench

(* Measure a microbenchmark under Groundhog built on a variant cost model:
   returns (mean in-function ms, mean restore ms). *)
let measure_with_cost cfg cost spec =
  let rng = Rng.create (cfg.Config.seed lxor Hashtbl.hash spec.Fm.name) in
  let inst = Fm.build ~cost spec in
  ignore (Fm.boot inst ~fault:Gh_sim.Fault.none rng);
  let mgr = Manager.create (Fm.proc inst) in
  ignore (Manager.take_snapshot_exn mgr);
  let n = max 3 cfg.Config.microbench_requests in
  let discard = 2 in
  let low = ref 0.0 and restore = ref 0.0 in
  for i = -discard to n - 1 do
    let acct = Account.create () in
    let req =
      Gh_faas.Request.make ~id:(i + discard + 1)
        ~principal:Sweep.principals.((i + discard) mod 2)
        ~input_kb:spec.Fm.input_kb ()
    in
    ignore (Fm.invoke inst acct rng ~post_restore:(i > -discard) req);
    Manager.mark_dirty mgr;
    let b = Manager.restore_exn mgr in
    if i >= 0 then begin
      low := !low +. Time_ns.to_ms (Account.total acct);
      restore := !restore +. Time_ns.to_ms b.Breakdown.total_ns
    end
  done;
  (!low /. float_of_int n, !restore /. float_of_int n)

type tracking_point = {
  dirtied : int;
  sd_low_ms : float;
  sd_restore_ms : float;
  uffd_low_ms : float;
  uffd_restore_ms : float;
  klist_low_ms : float;
  klist_restore_ms : float;
}

let densities mapped = [ 0; mapped / 100; mapped / 20; mapped / 5; mapped / 2; mapped ]

let run_tracking cfg ?(mapped = 20_000) () =
  List.map
    (fun dirtied ->
      let spec = Microbench.spec ~mapped_pages:mapped ~dirtied_pages:dirtied in
      let sd_low_ms, sd_restore_ms = measure_with_cost cfg Cost.default spec in
      let uffd_low_ms, uffd_restore_ms = measure_with_cost cfg Cost.uffd_tracking spec in
      let klist_low_ms, klist_restore_ms =
        measure_with_cost cfg Cost.kernel_list_tracking spec
      in
      {
        dirtied;
        sd_low_ms;
        sd_restore_ms;
        uffd_low_ms;
        uffd_restore_ms;
        klist_low_ms;
        klist_restore_ms;
      })
    (densities mapped)

type coalescing_point = { dirtied : int; with_ms : float; without_ms : float }

let run_coalescing cfg ?(mapped = 20_000) () =
  List.filter_map
    (fun dirtied ->
      if dirtied = 0 then None
      else begin
        let spec = Microbench.spec ~mapped_pages:mapped ~dirtied_pages:dirtied in
        let _, with_ms = measure_with_cost cfg Cost.default spec in
        let _, without_ms = measure_with_cost cfg Cost.no_coalescing spec in
        Some { dirtied; with_ms; without_ms }
      end)
    (densities mapped)

let print_tracking ppf points =
  let rows =
    List.map
      (fun (p : tracking_point) ->
        [
          string_of_int p.dirtied;
          Report.fmt_ms p.sd_low_ms;
          Report.fmt_ms p.sd_restore_ms;
          Report.fmt_ms p.uffd_low_ms;
          Report.fmt_ms p.uffd_restore_ms;
          Report.fmt_ms p.klist_low_ms;
          Report.fmt_ms p.klist_restore_ms;
          (let total = [
             (p.sd_low_ms +. p.sd_restore_ms, "soft-dirty");
             (p.uffd_low_ms +. p.uffd_restore_ms, "uffd");
             (p.klist_low_ms +. p.klist_restore_ms, "kernel-list");
           ]
           in
           snd (List.fold_left min (List.hd total) (List.tl total)));
        ])
      points
  in
  Report.table ppf
    ~title:
      "Ablation: dirty-page tracking (per-request ms) — soft-dirty bits (§4.3, chosen), \
       userfaultfd (prototyped, rejected), and the footnote-6 in-kernel dirty list"
    ~header:
      [
        "dirtied";
        "SD in-fn";
        "SD restore";
        "UFFD in-fn";
        "UFFD restore";
        "KLIST in-fn";
        "KLIST restore";
        "cheapest";
      ]
    rows

let print_coalescing ppf points =
  let rows =
    List.map
      (fun (p : coalescing_point) ->
        [
          string_of_int p.dirtied;
          Report.fmt_ms p.with_ms;
          Report.fmt_ms p.without_ms;
          Report.fmt_ratio (p.without_ms /. Float.max 1e-9 p.with_ms);
        ])
      points
  in
  Report.table ppf
    ~title:"Ablation: restore-copy run coalescing (restore ms with vs without batching)"
    ~header:[ "dirtied"; "coalesced"; "per-page ops"; "slowdown" ]
    rows
