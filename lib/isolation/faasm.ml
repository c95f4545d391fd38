module Account = Gh_sim.Account
module Rng = Gh_sim.Rng
module Cost = Gh_kernel.Cost
module Fm = Gh_faas.Function_model
module Intf = Gh_faas.Strategy_intf
module Snapshot = Groundhog_core.Snapshot
module Restore = Groundhog_core.Restore
module Breakdown = Groundhog_core.Breakdown

let make ?(fault = Gh_sim.Fault.none) ~rng spec =
  match spec.Fm.wasm_factor with
  | None ->
      Error (Printf.sprintf "%s has no WebAssembly port" spec.Fm.name)
  | Some factor ->
      (* The wasm build runs [factor] times the native speed; the linear
         memory's dirty tracking is free (the runtime owns the region), so
         no soft-dirty re-arm faults — writes pay CoW faults instead, armed
         at every reset. *)
      let scaled =
        {
          spec with
          Fm.exec_ns = int_of_float (float_of_int spec.Fm.exec_ns *. factor);
        }
      in
      let cost = { Cost.default with Cost.sd_fault_ns = 0 } in
      let inst = Fm.build ~cost scaled in
      let rng = Rng.split rng in
      let init_acct = Fm.boot inst ~fault rng in
      let snap = Snapshot.capture_exn init_acct (Fm.proc inst) in
      Gh_mem.Address_space.arm_cow_all (Fm.proc inst).Gh_proc.Process.mem;
      let rt = Fm.runtime inst in
      let init_ns = rt.Gh_faas.Runtime.init_ns + Account.total init_acct in
      let scratch = Account.create () in
      let invoke req =
        let acct = Account.create () in
        let response = Fm.invoke inst acct rng ~post_restore:false req in
        if response.Fm.hung then
          Intf.invocation ~on_path_ns:(Account.total acct) ~outcome:Intf.Hung response
        else begin
          (* Reset: the mechanism really restores (so isolation is real),
             but the charged cost is the remap model, not a pagemap scan. *)
          match Restore.run scratch snap (Fm.proc inst) with
          | Error _ ->
              (* The linear-memory remap failed: the Faaslet's state is
                 unknown; only the base reset cost was spent. *)
              Intf.invocation ~on_path_ns:(Account.total acct)
                ~post_ns:Cost.default.Cost.faasm_reset_base_ns
                ~restore_label:"faasm-reset" ~outcome:Intf.Poisoned response
          | Ok mechanics ->
              Gh_mem.Address_space.arm_cow_all (Fm.proc inst).Gh_proc.Process.mem;
              let restored = mechanics.Breakdown.pages_restored in
              let reset_ns =
                Cost.default.Cost.faasm_reset_base_ns
                + (restored * Cost.default.Cost.faasm_reset_per_dirty_page_ns)
              in
              let breakdown =
                {
                  Breakdown.zero with
                  Breakdown.copy_ns = reset_ns;
                  total_ns = reset_ns;
                  pages_restored = restored;
                  pages_madvised = mechanics.Breakdown.pages_madvised;
                  syscalls_injected = mechanics.Breakdown.syscalls_injected;
                }
              in
              Intf.invocation ~on_path_ns:(Account.total acct) ~post_ns:reset_ns
                ~breakdown ~isolated:true ~restore_label:"faasm-reset"
                ~outcome:(Intf.outcome_of_response response) response
        end
      in
      Ok
        {
          (Intf.stateless ~name:"faasm" ~init_ns invoke) with
          Intf.snapshot_pages = (fun () -> snap.Snapshot.present_pages);
        }
