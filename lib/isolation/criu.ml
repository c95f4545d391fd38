module Account = Gh_sim.Account
module Rng = Gh_sim.Rng
module Fm = Gh_faas.Function_model
module Intf = Gh_faas.Strategy_intf
module Manager = Groundhog_core.Manager
module Breakdown = Groundhog_core.Breakdown

(* VAS-CRIU-like in-memory restore: rebuild the address space from the
   image. ~120 ms fixed (task/resource restoration, page-table rebuild
   orchestration) plus ~6 us per present page (image read + placement) —
   lands at the ~0.5 s the paper quotes for typical containers. *)
let restore_base_ns = 120_000_000
let restore_per_page_ns = 6_000

let restore_cost_ns ~present_pages = restore_base_ns + (present_pages * restore_per_page_ns)

let make ?(verify = Manager.Verify_off) ?(fault = Gh_sim.Fault.none) ~rng spec =
  let inst = Fm.build spec in
  Gh_proc.Process.set_fault (Fm.proc inst) fault;
  let rng = Rng.split rng in
  let init_acct = Account.create () in
  let _warm = Fm.warmup inst init_acct rng in
  Fm.mark_clean inst;
  (* Checkpoint: serialize the full image (charged per present page). The
     manager holds the image and its integrity state: restore audit,
     scrub cursor, poisoning and the ground-truth oracle. *)
  let mgr = Manager.create ~verify (Fm.proc inst) in
  let capture_ns = Manager.take_snapshot_exn mgr in
  let present_pages = Manager.buffer_pages mgr in
  Account.charge init_acct (restore_per_page_ns * present_pages);
  let rt = Fm.runtime inst in
  let init_ns = rt.Gh_faas.Runtime.init_ns + Account.total init_acct + capture_ns in
  let invoke req =
    let acct = Account.create () in
    Manager.mark_dirty mgr;
    let response = Fm.invoke inst acct rng ~post_restore:true req in
    if response.Fm.hung then
      Intf.invocation ~on_path_ns:(Account.total acct) ~outcome:Intf.Hung response
    else
      (* The mechanism really reverts the state; the charge is the image
         deserialization model, not a dirty-proportional restore. A failed
         restore or audit spends the same and leaves the manager poisoned:
         serve nothing further from this image. *)
      let reset_ns = restore_cost_ns ~present_pages in
      match Intf.manager_restore mgr with
      | Error (_, verify) ->
          Intf.invocation ~on_path_ns:(Account.total acct) ~post_ns:reset_ns ~verify
            ~restore_label:"criu-restore" ~outcome:Intf.Poisoned response
      | Ok (mechanics, verify) ->
          let breakdown =
            {
              Breakdown.zero with
              Breakdown.copy_ns = reset_ns;
              total_ns = reset_ns;
              pages_restored = present_pages;
              pages_madvised = mechanics.Breakdown.pages_madvised;
            }
          in
          Intf.invocation ~on_path_ns:(Account.total acct) ~post_ns:reset_ns ~breakdown
            ~isolated:true ~verify ~restore_label:"criu-restore"
            ~outcome:(Intf.outcome_of_response response) response
  in
  {
    Intf.name = "criu";
    init_ns;
    invoke;
    snapshot_pages = (fun () -> present_pages);
    describe =
      (fun () -> "CRIU-style full-image checkpoint/restore per request (related work)");
    status = Intf.no_status;
    kill = Intf.no_kill;
    degrade = Intf.no_degrade;
    scrub = Intf.manager_scrub mgr;
    (* Every completed CRIU invocation ends in a full-image restore, so
       between requests the image is the reference — except right after
       boot (the warm process itself is the reference, even if the stored
       image is corrupt) or mid-hang. *)
    audit = (fun () -> Manager.audit_oracle mgr);
  }
