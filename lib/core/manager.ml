module Account = Gh_sim.Account
module Fault = Gh_sim.Fault
module Process = Gh_proc.Process

type mode = Eager | Incremental

type status = Clean | Dirty | Restoring | Poisoned

type failure = { what : string; spent_ns : Gh_sim.Time_ns.t }

type verify = Verify_off | Verify_sampled of int | Verify_full

type t = {
  proc : Process.t;
  acct : Account.t;
  paranoid : bool;
  verify : verify;
  mode : mode;
  mutable snap : Snapshot.t option;
  mutable incr : Incremental.t option;
  mutable status : status;
  mutable restores : int;
  mutable failures : int;
  mutable last_failure : failure option;
  (* -- Integrity. Verification and scrubbing read memory and nothing
     else: they are never charged to [acct], so the event timeline is
     bit-identical with them on or off (DESIGN §14). -- *)
  mutable last_verify_blocks : int;
  mutable verify_failures : int;
  mutable scrub_cursor : int;
  mutable clean_via_restore : bool;
  (* Dedup membership: the index the eager snapshot joined, and this
     manager's handle in it. *)
  mutable sharer : (Dedup.t * Dedup.sharer) option;
}

let create ?(paranoid = false) ?(verify = Verify_off) ?(mode = Eager) proc =
  if paranoid && mode = Incremental then
    invalid_arg "Manager.create: paranoid verification requires eager snapshots";
  if verify <> Verify_off && mode = Incremental then
    invalid_arg "Manager.create: hash verification requires eager snapshots";
  (match verify with
  | Verify_sampled k when k < 1 ->
      invalid_arg "Manager.create: sampled verification needs a stride >= 1"
  | _ -> ());
  {
    proc;
    acct = Account.create ();
    paranoid;
    verify;
    mode;
    snap = None;
    incr = None;
    status = Dirty;
    restores = 0;
    failures = 0;
    last_failure = None;
    last_verify_blocks = 0;
    verify_failures = 0;
    scrub_cursor = 0;
    clean_via_restore = false;
    sharer = None;
  }

let process t = t.proc
let verify t = t.verify
let status t = t.status

let fail t what start =
  let f = { what; spent_ns = Account.since t.acct start } in
  t.status <- Poisoned;
  t.failures <- t.failures + 1;
  t.last_failure <- Some f;
  Error f

let take_snapshot t =
  (match t.snap with
  | Some _ -> failwith "Groundhog manager: snapshot already taken"
  | None -> ());
  let start = Account.mark t.acct in
  let snap =
    match t.mode with
    | Eager -> Snapshot.capture t.acct t.proc
    | Incremental -> (
        match Incremental.capture t.acct t.proc with
        | Ok incr ->
            t.incr <- Some incr;
            Ok (Incremental.snapshot incr)
        | Error _ as e -> e)
  in
  match snap with
  | Ok snap ->
      t.snap <- Some snap;
      t.status <- Clean;
      (* Clean-by-capture, not by restore: the warm process itself is the
         reference state, so even a corrupted *buffer* cannot taint the
         first serve — the audit oracle stays unavailable until a restore
         has actually copied stored bytes into the process. *)
      t.clean_via_restore <- false;
      Ok snap.Snapshot.capture_ns
  | Error site -> fail t ("snapshot fault at " ^ Fault.site_name site) start

let take_snapshot_exn t =
  match take_snapshot t with
  | Ok ns -> ns
  | Error f -> failwith ("Groundhog manager: " ^ f.what)

let snapshot t = t.snap

let mark_dirty t = match t.status with Poisoned -> () | _ -> t.status <- Dirty

let is_clean t = t.status = Clean

(* Restore-time hash audit per the [verify] policy. Sampled verification
   checks every [k]-th block, rotating the offset with the restore count so
   consecutive restores sweep disjoint block classes and any persistent
   corruption is caught within [k] restores. Reads restored memory and the
   stored hashes only — no account charge, no randomness. *)
let run_audit t snap =
  let stride, offset =
    match t.verify with
    | Verify_off -> (0, 0)
    | Verify_full -> (1, 0)
    | Verify_sampled k -> (k, t.restores mod k)
  in
  if stride = 0 then Ok ()
  else
    match Verify.audit_hashes ~stride ~offset snap t.proc with
    | Ok blocks ->
        t.last_verify_blocks <- blocks;
        Ok ()
    | Error c ->
        t.verify_failures <- t.verify_failures + 1;
        t.last_verify_blocks <- 0;
        Error c

(* Corruption was just detected at [c]. If the *stored* block itself fails
   verification, the canonical copy is damaged and every dedup sharer of
   it restores from the same bytes — blast them all (fail closed). A
   restore-skip leaves the store intact, so it blasts nothing. *)
let blast t snap (c : Snapshot.corruption) =
  match t.sharer with
  | None -> ()
  | Some (d, sh) ->
      let stored_bad =
        match Snapshot.find_region snap ~start_addr:c.Snapshot.region_addr with
        | None -> false
        | Some r -> not (Snapshot.verify_block r c.Snapshot.block)
      in
      if stored_bad then
        ignore
          (Dedup.blast d sh ~region_addr:c.Snapshot.region_addr ~block:c.Snapshot.block
             ~what:c.Snapshot.what)

let restore t =
  if t.status = Poisoned then
    (* Absorbing: once the process state is unknown, no restore may prove
       it clean again — only kill + cold restart. *)
    Error { what = "manager is poisoned (fail closed)"; spent_ns = 0 }
  else
  match t.snap with
  | None -> failwith "Groundhog manager: restore before snapshot"
  | Some snap -> (
      let start = Account.mark t.acct in
      t.status <- Restoring;
      match Restore.run t.acct snap t.proc with
      | Error site -> fail t ("restore fault at " ^ Fault.site_name site) start
      | Ok breakdown ->
          let verified =
            if not t.paranoid then Ok ()
            else
              match Verify.state_matches snap t.proc with
              | Ok () -> Ok ()
              | Error m ->
                  fail t
                    (Format.asprintf "restore verification failed: %a" Verify.pp_mismatch m)
                    start
          in
          let verified =
            match verified with
            | Error _ as e -> e
            | Ok () -> (
                match run_audit t snap with
                | Ok () -> Ok ()
                | Error c ->
                    blast t snap c;
                    fail t
                      (Format.asprintf "hash audit failed: %a" Snapshot.pp_corruption c)
                      start)
          in
          (match verified with
          | Ok () ->
              (* The only transition into [Clean] besides the snapshot
                 itself: a restore that ran to completion (and verified,
                 when paranoid or hash-audited). *)
              t.status <- Clean;
              t.clean_via_restore <- true;
              t.restores <- t.restores + 1
          | Error _ -> ());
          Result.map (fun () -> breakdown) verified)

let restore_exn t =
  match restore t with
  | Ok b -> b
  | Error f -> failwith ("Groundhog manager: " ^ f.what)

let skip_restore t =
  if t.status = Poisoned then
    invalid_arg "Manager.skip_restore: container is poisoned (fail closed)";
  t.status <- Clean;
  (* Clean by policy, not by copying stored bytes: the process content is
     whatever the trusting callers left, so the hash oracle must not judge
     it against the snapshot. *)
  t.clean_via_restore <- false

let poison t what =
  t.status <- Poisoned;
  t.failures <- t.failures + 1;
  t.last_failure <- Some { what; spent_ns = 0 }

(* Fold the eager snapshot into [dedup]. Incremental shells materialize
   lazily, so their content is not stable at registration time and they
   stay out. [on_corrupt] is the receiving end of another sharer's blast:
   our stored copy of that block is the same physical bytes, so we are
   poisoned too. *)
let join_dedup t dedup ~owner =
  if t.sharer <> None then invalid_arg "Manager.join_dedup: already a dedup member";
  match (t.mode, t.snap) with
  | Eager, Some snap ->
      let on_corrupt c =
        if t.status <> Poisoned then
          poison t (Format.asprintf "dedup blast: %a" Snapshot.pp_corruption c)
      in
      t.sharer <- Some (dedup, Dedup.register dedup ~owner ~on_corrupt snap)
  | _ -> ()

let kill t =
  if t.status <> Poisoned then poison t "killed";
  match t.sharer with
  | Some (d, sh) ->
      Dedup.unregister d sh;
      t.sharer <- None
  | None -> ()

(* One bounded slice of stored-side integrity scrubbing: re-hash up to
   [blocks] snapshot blocks from the cursor. Detects buffer corruption
   (bitflips, torn captures) while the container idles — before a restore
   ever serves it. The cursor walks one full pass and reports completion
   so the caller can stop rescheduling (and not spin the event loop). *)
let scrub t ~blocks =
  if t.status = Poisoned then `Skip
  else
    match t.snap with
    | None -> `Skip
    | Some snap -> (
        let r = Snapshot.scrub snap ~cursor:t.scrub_cursor ~blocks in
        t.scrub_cursor <- r.Snapshot.next_cursor;
        match r.Snapshot.corrupt with
        | Some c ->
            poison t (Format.asprintf "scrub: %a" Snapshot.pp_corruption c);
            blast t snap c;
            `Corrupt c
        | None -> `Checked (r.Snapshot.checked_blocks, r.Snapshot.next_cursor = 0))

(* Ground-truth probe for experiments: would serving from the current
   process state serve corrupted bytes? Only meaningful when the state
   was produced by an actual restore (stored bytes copied in) — after a
   fresh snapshot or a trusted skip the process itself is the reference,
   so there is nothing to judge. Eager mode only: an incremental shell
   stores just the salvaged pages, so its hashes cover the buffer, not
   the full process image. *)
let audit_oracle t =
  match (t.snap, t.status, t.mode) with
  | Some snap, Clean, Eager when t.clean_via_restore ->
      Some
        (match Verify.audit_hashes snap t.proc with
        | Ok _ -> `Intact
        | Error c -> `Corrupt (Format.asprintf "%a" Snapshot.pp_corruption c))
  | _ -> None

let restores_performed t = t.restores
let failures t = t.failures
let last_failure t = t.last_failure
let total_manager_ns t = Account.total t.acct
let last_verify_blocks t = t.last_verify_blocks
let verify_failures t = t.verify_failures

let buffer_pages t =
  match (t.sharer, t.mode, t.incr, t.snap) with
  | Some (_, sh), _, _, _ -> Dedup.charged_pages sh
  | None, Incremental, Some incr, _ -> Incremental.saved_pages incr
  | None, _, _, Some snap -> snap.Snapshot.present_pages
  | _ -> 0
