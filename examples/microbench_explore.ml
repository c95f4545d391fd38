(* Explore the §5.2 microbenchmark interactively: a custom sweep over
   dirtied pages at a fixed address-space size, printing the in-function
   (low-load) and with-restoration (high-load) latency per isolation
   method — plus the Uffd-tracking and no-coalescing cost-model ablations
   for the Groundhog configuration.

   Run with: dune exec examples/microbench_explore.exe *)

module Microbench = Gh_workloads.Microbench
module Registry = Gh_isolation.Registry
module Intf = Gh_faas.Strategy_intf
module Fm = Gh_faas.Function_model
module Time_ns = Gh_sim.Time_ns
module Rng = Gh_sim.Rng
module Account = Gh_sim.Account

let mapped = 20_000
let requests = 25

let principals =
  [| Gh_faas.Principal.make ~id:1 ~name:"a"; Gh_faas.Principal.make ~id:2 ~name:"b" |]

let measure strat =
  let low = ref 0.0 and high = ref 0.0 in
  for i = -2 to requests - 1 do
    let req =
      Gh_faas.Request.make ~id:(i + 3) ~principal:principals.((i + 2) mod 2) ~input_kb:1 ()
    in
    let inv = strat.Intf.invoke req in
    if i >= 0 then begin
      low := !low +. Time_ns.to_ms inv.Intf.on_path_ns;
      high := !high +. Time_ns.to_ms (inv.Intf.on_path_ns + inv.Intf.post_ns)
    end
  done;
  (!low /. float_of_int requests, !high /. float_of_int requests)

(* Groundhog with a variant cost model (ablations). *)
let gh_with_cost cost spec =
  let inst = Fm.build ~cost spec in
  let rng = Rng.create 99 in
  ignore (Fm.boot inst ~fault:Gh_sim.Fault.none rng);
  let mgr = Groundhog_core.Manager.create (Fm.proc inst) in
  ignore (Groundhog_core.Manager.take_snapshot_exn mgr);
  let restored = ref false in
  Intf.stateless ~name:"gh-ablation" ~init_ns:0 (fun req ->
      let acct = Account.create () in
      let response = Fm.invoke inst acct rng ~post_restore:!restored req in
      Groundhog_core.Manager.mark_dirty mgr;
      let b = Groundhog_core.Manager.restore_exn mgr in
      restored := true;
      Intf.invocation ~on_path_ns:(Account.total acct)
        ~post_ns:b.Groundhog_core.Breakdown.total_ns ~breakdown:b ~isolated:true
        ~restore_label:"gh-restore" ~outcome:(Intf.outcome_of_response response) response)

let () =
  Format.printf
    "Microbenchmark sweep: %d mapped pages, varying dirtied pages (means over %d requests)@."
    mapped requests;
  Format.printf "%8s | %18s | %18s | %18s | %18s@." "dirtied" "BASE low/high"
    "GH low/high" "FORK low/high" "GH-uffd low/high";
  List.iter
    (fun dirtied ->
      let spec = Microbench.spec ~mapped_pages:mapped ~dirtied_pages:dirtied in
      let cell strategy =
        match Registry.make strategy ~rng:(Rng.create 5) spec with
        | Ok strat ->
            let low, high = measure strat in
            Printf.sprintf "%7.2f / %7.2f" low high
        | Error _ -> "      -       -"
      in
      let uffd =
        let low, high = measure (gh_with_cost Gh_kernel.Cost.uffd_tracking spec) in
        Printf.sprintf "%7.2f / %7.2f" low high
      in
      Format.printf "%8d | %18s | %18s | %18s | %18s@." dirtied (cell Registry.Base)
        (cell Registry.Gh) (cell Registry.Fork) uffd)
    [ 0; 500; 2_000; 8_000; 16_000; 20_000 ];
  Format.printf
    "@.Uffd tracking (§4.3 ablation): cheap restores only near zero dirtied pages —@.\
     the per-write user-space round trips dominate everywhere else, which is why@.\
     the paper chose soft-dirty bits.@.";

  (* No-coalescing ablation: restoration cost at high density. *)
  let spec = Microbench.spec ~mapped_pages:mapped ~dirtied_pages:16_000 in
  let _, high_coalesced = measure (gh_with_cost Gh_kernel.Cost.default spec) in
  let _, high_split = measure (gh_with_cost Gh_kernel.Cost.no_coalescing spec) in
  Format.printf
    "@.Coalescing ablation at 80%% density: with %7.2f ms vs without %7.2f ms per request@."
    high_coalesced high_split
