module Account = Gh_sim.Account
module Rng = Gh_sim.Rng
module Fm = Gh_faas.Function_model
module Intf = Gh_faas.Strategy_intf
module Manager = Groundhog_core.Manager
module Actionloop = Gh_faas.Actionloop

type interposition = Intercept | Platform_signal

type state = {
  inst : Fm.instance;
  mgr : Manager.t;
  loop : Actionloop.t;
  interposition : interposition;
  rng : Rng.t;
  policy : Policy.t;
  mutable restored_since_last : bool;
  (* Brownout: while [degraded], the post-completion restore is deferred —
     the rollback debt is remembered in [deferred_from] and settled at the
     next dispatch (free if the same principal returns, on-path restore
     otherwise). *)
  mutable degraded : bool;
  mutable deferred_from : Gh_faas.Principal.t option;
  mutable deferred_restores : int;
}

let manager s = s.mgr
let instance s = s.inst
let actionloop s = s.loop
let deferred_restores s = s.deferred_restores

let run_function s req =
  let acct = Account.create () in
  let io0 = Actionloop.io_total_ns s.loop in
  let rt = Fm.runtime s.inst in
  (* The input reaches the function only when the process is provably
     clean (§4.5): via the interposed actionloop pipes (Intercept, paying
     copy costs) or forwarded directly by the platform after the manager's
     clean signal (Platform_signal, free). *)
  let req =
    match s.interposition with
    | Platform_signal ->
        if not (Manager.is_clean s.mgr) then
          failwith "Groundhog: platform forwarded input to a dirty process";
        req
    | Intercept -> begin
        match Actionloop.offer s.loop acct ~clean:(Manager.is_clean s.mgr) req with
        | `Delivered -> req
        | `Buffered -> begin
            (* The container serializes requests, so this only happens if
               the caller raced a restore; deliver once the state is known. *)
            match Actionloop.drain s.loop acct ~clean:(Manager.is_clean s.mgr) with
            | [ r ] -> r
            | _ -> failwith "Groundhog actionloop: input held back from a dirty process"
          end
      end
  in
  (* The first invocation after a restore runs against cold caches and
     madvised (refaulting) pages. *)
  if s.restored_since_last then Account.charge acct rt.Gh_faas.Runtime.restore_warmup_ns;
  let response = Fm.invoke s.inst acct s.rng ~post_restore:s.restored_since_last req in
  Manager.mark_dirty s.mgr;
  (if not response.Fm.hung then
     match s.interposition with
     | Intercept -> Actionloop.return_output s.loop acct ~output_kb:response.Fm.output_kb
     | Platform_signal -> ());
  (Account.total acct, Actionloop.io_total_ns s.loop - io0, response)

(* Pay off a restore deferred under brownout, before [req] may run. If the
   same principal is back, the residue is its own data — the same-security-
   domain argument as §4.4's [Trust_same_principal] — and the debt collapses
   for free. A different principal forces the restore onto this request's
   critical path; it must complete before any input is forwarded. *)
let settle_deferred s req =
  match s.deferred_from with
  | None -> Ok (0, Intf.Unverified)
  | Some p ->
      s.deferred_from <- None;
      if Gh_faas.Principal.equal p req.Gh_faas.Request.principal then
        Ok (0, Intf.Unverified)
      else begin
        Manager.mark_dirty s.mgr;
        match Intf.manager_restore s.mgr with
        | Ok (breakdown, v) ->
            s.restored_since_last <- true;
            Ok (breakdown.Groundhog_core.Breakdown.total_ns, v)
        | Error _ as e -> e
      end

let invoke_with_lookahead s req ~next =
  match settle_deferred s req with
  | Error (f, verify) ->
      (* The catch-up restore failed: the manager is poisoned and the
         request was never started — fail closed with an error response. *)
      Intf.invocation ~on_path_ns:f.Manager.spent_ns
        ~restore_on_path_ns:f.Manager.spent_ns ~verify ~outcome:Intf.Poisoned
        { Fm.value = 0; residue = []; output_kb = 0; crashed = true; hung = false }
  | Ok (settle_ns, settle_verify) ->
  let on_path_ns, io_ns, response = run_function s req in
  let on_path_ns = settle_ns + on_path_ns in
  if response.Fm.hung then
    (* No output, no restore: the process is wedged mid-request and the
       manager stays [Dirty] — only a platform timeout (kill + cold
       restart) can free the container. *)
    Intf.invocation ~on_path_ns ~io_ns ~restore_on_path_ns:settle_ns
      ~verify:settle_verify ~outcome:Intf.Hung response
  else begin
    let skip =
      match next with
      | Some n -> not (Policy.requires_restore s.policy ~prev:(Some req) ~next:n)
      | None -> false
    in
    if skip then begin
      Manager.skip_restore s.mgr;
      s.restored_since_last <- false;
      Intf.invocation ~on_path_ns ~io_ns ~restore_on_path_ns:settle_ns
        ~verify:settle_verify ~outcome:(Intf.outcome_of_response response) response
    end
    else if s.degraded && not response.Fm.crashed && Manager.status s.mgr = Manager.Dirty
    then begin
      (* Brownout: defer the incremental re-snapshot/restore instead of
         burning the core now. [skip_restore] marks the process policy-clean
         (the §4.4 same-domain argument applied optimistically); the debt in
         [deferred_from] is validated at the next dispatch, so no request
         from a different principal can ever run over this residue. Crashed
         responses always restore immediately — the process state is not
         merely dirty but wrecked. *)
      Manager.skip_restore s.mgr;
      s.restored_since_last <- false;
      s.deferred_from <- Some req.Gh_faas.Request.principal;
      s.deferred_restores <- s.deferred_restores + 1;
      Intf.invocation ~on_path_ns ~io_ns ~restore_on_path_ns:settle_ns
        ~verify:settle_verify ~outcome:(Intf.outcome_of_response response) response
    end
    else begin
      match Intf.manager_restore s.mgr with
      | Ok (breakdown, verify) ->
          s.restored_since_last <- true;
          Intf.invocation ~on_path_ns ~io_ns ~restore_on_path_ns:settle_ns
            ~post_ns:breakdown.Groundhog_core.Breakdown.total_ns ~breakdown
            ~isolated:true ~verify ~restore_label:"gh-restore"
            ~outcome:(Intf.outcome_of_response response) response
      | Error (f, verify) ->
          (* The failed attempt still burned manager time; the manager is
             now [Poisoned] and the container must be killed and rebuilt. *)
          Intf.invocation ~on_path_ns ~io_ns ~restore_on_path_ns:settle_ns
            ~post_ns:f.Manager.spent_ns ~verify ~restore_label:"gh-restore"
            ~outcome:Intf.Poisoned response
    end
  end

let make_with_state ?(policy = Policy.Always_isolate) ?(paranoid = false)
    ?(verify = Manager.Verify_off) ?dedup ?(mode = Manager.Eager)
    ?(interposition = Intercept) ?(fault = Gh_sim.Fault.none) ~rng spec =
  let inst = Fm.build spec in
  let rng = Rng.split rng in
  let init_acct = Fm.boot inst ~fault rng in
  let mgr = Manager.create ~paranoid ~verify ~mode (Fm.proc inst) in
  let snap_ns = Manager.take_snapshot_exn mgr in
  let rt = Fm.runtime inst in
  let init_ns = rt.Gh_faas.Runtime.init_ns + Account.total init_acct + snap_ns in
  let loop = Actionloop.create rt in
  let s =
    {
      inst;
      mgr;
      loop;
      interposition;
      rng;
      policy;
      restored_since_last = false;
      degraded = false;
      deferred_from = None;
      deferred_restores = 0;
    }
  in
  Option.iter (fun d -> Manager.join_dedup mgr d ~owner:"gh") dedup;
  let strategy =
    {
      (Intf.stateless ~name:"gh" ~init_ns (fun req -> invoke_with_lookahead s req ~next:None))
      with
      Intf.snapshot_pages = (fun () -> Manager.buffer_pages mgr);
      status = (fun () -> Some (Intf.manager_status mgr));
      kill = (fun () -> Manager.kill mgr);
      degrade = (fun d -> s.degraded <- d);
      scrub =
        (fun blocks ->
          (* Brownout-aware: scrubbing is the definition of deferrable
             work, so a degraded container skips its slices entirely. *)
          if s.degraded then Intf.Scrub_skip else Intf.manager_scrub mgr blocks);
      audit = (fun () -> Manager.audit_oracle mgr);
    }
  in
  (strategy, s)

let make ?paranoid ?verify ?dedup ?mode ?interposition ?fault ~rng spec =
  let strategy, _state =
    make_with_state ?paranoid ?verify ?dedup ?mode ?interposition ?fault ~rng spec
  in
  strategy
