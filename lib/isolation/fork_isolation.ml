module Account = Gh_sim.Account
module Rng = Gh_sim.Rng
module Fm = Gh_faas.Function_model
module Intf = Gh_faas.Strategy_intf
module Process = Gh_proc.Process

(* Reaping the child (wait4 plus page-table teardown) overlaps the next
   request; the kernel frees the CoW structures asynchronously. *)
let reap_ns = 60_000

let make ?(fault = Gh_sim.Fault.none) ~rng spec =
  let rt = Gh_faas.Runtime.for_lang spec.Fm.lang in
  if rt.Gh_faas.Runtime.threads > 1 then
    Error
      (Printf.sprintf "fork-based isolation cannot snapshot the %d-thread %s runtime"
         rt.Gh_faas.Runtime.threads
         (Gh_faas.Runtime.lang_to_string rt.Gh_faas.Runtime.lang))
  else begin
    let inst = Fm.build spec in
    let rng = Rng.split rng in
    let init_acct = Fm.boot inst ~fault rng in
    let init_ns = rt.Gh_faas.Runtime.init_ns + Account.total init_acct in
    let loop = Gh_faas.Actionloop.create rt in
    let invoke req =
      let acct = Account.create () in
      let io0 = Gh_faas.Actionloop.io_total_ns loop in
      (* The freshly forked child is by construction clean: inputs flow
         through the interposition immediately. *)
      ignore (Gh_faas.Actionloop.offer loop acct ~clean:true req);
      (* fork(2) and the runtime's atfork work are on the critical path. *)
      let child = Process.fork (Fm.proc inst) acct in
      Account.charge acct rt.Gh_faas.Runtime.fork_extra_ns;
      let response = Fm.invoke_on inst child acct rng ~post_restore:false req in
      if response.Fm.hung then
        (* The child is wedged; the parent stays pristine, but no response
           exists — only the platform timeout frees the request's core. *)
        Intf.invocation ~on_path_ns:(Account.total acct)
          ~io_ns:(Gh_faas.Actionloop.io_total_ns loop - io0) ~isolated:true
          ~outcome:Intf.Hung response
      else begin
        Gh_faas.Actionloop.return_output loop acct ~output_kb:response.Fm.output_kb;
        (* The reap frees the child's pages: recycle its clone buffers
           into this domain's pool so the next fork reuses them instead
           of churning the major heap. (A hung child stays mapped until
           the platform timeout kills it, so only this path recycles.) *)
        Process.recycle child;
        Intf.invocation ~on_path_ns:(Account.total acct)
          ~io_ns:(Gh_faas.Actionloop.io_total_ns loop - io0) ~post_ns:reap_ns
          ~isolated:true ~restore_label:"reap"
          ~outcome:(Intf.outcome_of_response response) response
      end
    in
    Ok (Intf.stateless ~name:"fork" ~init_ns invoke)
  end
