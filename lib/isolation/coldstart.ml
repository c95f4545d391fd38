module Account = Gh_sim.Account
module Rng = Gh_sim.Rng
module Fm = Gh_faas.Function_model
module Intf = Gh_faas.Strategy_intf
module Snapshot = Groundhog_core.Snapshot
module Restore = Groundhog_core.Restore

let make ?(fault = Gh_sim.Fault.none) ~rng spec =
  let inst = Fm.build spec in
  let rng = Rng.split rng in
  let warm_ns = Account.total (Fm.boot inst ~fault rng) in
  let rt = Fm.runtime inst in
  let init_ns = rt.Gh_faas.Runtime.init_ns + warm_ns in
  (* A snapshot gives us the mechanics of "a fresh container's state"
     without rebuilding the whole process per request; the per-request
     charge is nevertheless the full cold-start cost. *)
  let scratch = Account.create () in
  let snap = Snapshot.capture_exn scratch (Fm.proc inst) in
  let invoke req =
    let acct = Account.create () in
    (* Cold start: boot a container, boot the runtime, initialize state. *)
    let boot_ns = rt.Gh_faas.Runtime.init_ns + warm_ns in
    Account.charge acct boot_ns;
    let response = Fm.invoke inst acct rng ~post_restore:false req in
    if response.Fm.hung then
      Intf.invocation ~on_path_ns:(Account.total acct) ~cold_ns:boot_ns ~isolated:true
        ~outcome:Intf.Hung response
    else begin
      let outcome =
        (* The "fresh container" reset is simulation mechanics; if it
           faults, this container can't serve again. *)
        match Restore.run scratch snap (Fm.proc inst) with
        | Ok _ -> Intf.outcome_of_response response
        | Error _ -> Intf.Poisoned
      in
      Intf.invocation ~on_path_ns:(Account.total acct) ~cold_ns:boot_ns ~isolated:true
        ~outcome response
    end
  in
  Intf.stateless ~name:"coldstart" ~init_ns invoke
