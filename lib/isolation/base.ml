module Account = Gh_sim.Account
module Rng = Gh_sim.Rng
module Fm = Gh_faas.Function_model
module Intf = Gh_faas.Strategy_intf

let make ?(fault = Gh_sim.Fault.none) ~rng spec =
  let inst = Fm.build spec in
  Gh_proc.Process.set_fault (Fm.proc inst) fault;
  let rt = Fm.runtime inst in
  let init_acct = Account.create () in
  let _warm = Fm.warmup inst init_acct rng in
  Fm.mark_clean inst;
  let init_ns = rt.Gh_faas.Runtime.init_ns + Account.total init_acct in
  (* A crashed container has no snapshot to fall back on: the platform must
     rebuild it from scratch. (The snapshot below is simulation mechanics
     that stands in for the rebuild; the charge is the full cold start.) *)
  let scratch = Account.create () in
  let rebuild_state = Groundhog_core.Snapshot.capture_exn scratch (Fm.proc inst) in
  let invoke req =
    let acct = Account.create () in
    let response = Fm.invoke inst acct rng ~post_restore:false req in
    if response.Fm.hung then
      Intf.invocation ~on_path_ns:(Account.total acct) ~outcome:Intf.Hung response
    else if response.Fm.crashed then begin
      (* The rebuild charge is paid either way; if the rebuild mechanics
         themselves fault, the container is unusable — poisoned. *)
      let outcome =
        match Groundhog_core.Restore.run scratch rebuild_state (Fm.proc inst) with
        | Ok _ -> Intf.Crashed
        | Error _ -> Intf.Poisoned
      in
      Intf.invocation ~on_path_ns:(Account.total acct) ~post_ns:init_ns
        ~restore_label:"rebuild" ~outcome response
    end
    else Intf.invocation ~on_path_ns:(Account.total acct) ~outcome:Intf.Completed response
  in
  {
    Intf.name = "base";
    init_ns;
    invoke;
    snapshot_pages = (fun () -> 0);
    describe = (fun () -> "insecure baseline: warm container reuse, no isolation");
    status = Intf.no_status;
    kill = Intf.no_kill;
    (* No post-completion recovery work exists to defer. *)
    degrade = Intf.no_degrade;
    scrub = Intf.no_scrub;
    audit = Intf.no_audit;
  }
