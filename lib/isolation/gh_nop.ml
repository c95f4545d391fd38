module Account = Gh_sim.Account
module Rng = Gh_sim.Rng
module Fm = Gh_faas.Function_model
module Intf = Gh_faas.Strategy_intf
module Manager = Groundhog_core.Manager

let make ?(verify = Manager.Verify_off) ?dedup ?(fault = Gh_sim.Fault.none) ~rng spec =
  let inst = Fm.build spec in
  Gh_proc.Process.set_fault (Fm.proc inst) fault;
  let rng = Rng.split rng in
  let init_acct = Account.create () in
  let _warm = Fm.warmup inst init_acct rng in
  Fm.mark_clean inst;
  let mgr = Manager.create ~verify (Fm.proc inst) in
  let snap_ns = Manager.take_snapshot_exn mgr in
  let rt = Fm.runtime inst in
  let init_ns = rt.Gh_faas.Runtime.init_ns + Account.total init_acct + snap_ns in
  let loop = Gh_faas.Actionloop.create rt in
  Option.iter (fun d -> Manager.join_dedup mgr d ~owner:"gh-nop") dedup;
  let invoke req =
    let acct = Account.create () in
    let io0 = Gh_faas.Actionloop.io_total_ns loop in
    (* Same interposition as full Groundhog; the single-domain container is
       always "clean" in the policy sense, so inputs flow immediately. *)
    ignore (Gh_faas.Actionloop.offer loop acct ~clean:true req);
    let response = Fm.invoke inst acct rng ~post_restore:false req in
    Manager.mark_dirty mgr;
    let io_ns () = Gh_faas.Actionloop.io_total_ns loop - io0 in
    if response.Fm.hung then
      Intf.invocation ~on_path_ns:(Account.total acct) ~io_ns:(io_ns ()) ~outcome:Intf.Hung
        response
    else begin
      Gh_faas.Actionloop.return_output loop acct ~output_kb:response.Fm.output_kb;
      (* Restoration is skipped between same-domain requests — but a crashed
         process is rolled back: the snapshot doubles as crash recovery. *)
      if response.Fm.crashed then begin
        match Intf.manager_restore mgr with
        | Ok (b, verify) ->
            Intf.invocation ~on_path_ns:(Account.total acct) ~io_ns:(io_ns ())
              ~post_ns:b.Groundhog_core.Breakdown.total_ns ~breakdown:b ~verify
              ~restore_label:"crash-restore" ~outcome:Intf.Crashed response
        | Error (f, verify) ->
            Intf.invocation ~on_path_ns:(Account.total acct) ~io_ns:(io_ns ())
              ~post_ns:f.Manager.spent_ns ~verify ~restore_label:"crash-restore"
              ~outcome:Intf.Poisoned response
      end
      else begin
        Manager.skip_restore mgr;
        Intf.invocation ~on_path_ns:(Account.total acct) ~io_ns:(io_ns ())
          ~outcome:Intf.Completed response
      end
    end
  in
  {
    Intf.name = "gh-nop";
    init_ns;
    invoke;
    snapshot_pages =
      (fun () ->
        match Manager.snapshot mgr with
        | Some snap -> snap.Groundhog_core.Snapshot.present_pages
        | None -> 0);
    describe = (fun () -> "Groundhog without restoration (single security domain)");
    status = (fun () -> Some (Intf.manager_status mgr));
    kill = (fun () -> Manager.kill mgr);
    (* GH-NOP never restores, so there is nothing to defer. *)
    degrade = Intf.no_degrade;
    scrub = Intf.manager_scrub mgr;
    audit = (fun () -> Manager.audit_oracle mgr);
  }
