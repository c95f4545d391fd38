(* How an invocation ended, from the platform's point of view. *)
type outcome =
  | Completed  (** Response produced; deferred work (if any) succeeded. *)
  | Crashed
      (** The function died mid-request but the strategy recovered the
          container (restore or rebuild); an error response is produced. *)
  | Hung
      (** The function never returned: no response exists, [on_path_ns] is
          only the work done before the stall. Only a platform timeout
          frees the container. *)
  | Poisoned
      (** The strategy's deferred recovery (restore / re-snapshot) failed:
          the response (if any) was already delivered, but the container
          must never serve again — kill + cold restart required. *)

(* What restore-time hash verification saw for this invocation. *)
type verify_outcome =
  | Unverified  (** No audit ran (policy off, or no restore happened). *)
  | Verified of int  (** Audit passed; the number of blocks it checked. *)
  | Verify_failed of string
      (** Audit caught corruption — the container is poisoned and this
          request must NOT have been served from the corrupt state. *)

type invocation = {
  on_path_ns : Gh_sim.Time_ns.t;
  post_ns : Gh_sim.Time_ns.t;
  response : Function_model.response;
  breakdown : Groundhog_core.Breakdown.t option;
  isolated : bool;
  outcome : outcome;
  verify : verify_outcome;
  (* Span attribution: how the on-path time decomposes. All three are
     *included in* [on_path_ns], never in addition to it, and default to
     zero — they only feed observability, not accounting. *)
  cold_ns : Gh_sim.Time_ns.t;
      (** One-time initialization paid on this request's critical path
          (container cold start). *)
  io_ns : Gh_sim.Time_ns.t;
      (** Actionloop interposition copy costs (input + output). *)
  restore_on_path_ns : Gh_sim.Time_ns.t;
      (** Restore work forced onto the critical path (e.g. settling a
          brownout-deferred restore for a different principal). *)
  restore_label : string;
      (** Name for the deferred [post_ns] work's span (e.g. ["gh-restore"],
          ["reap"], ["criu-restore"]); [""] for a generic ["restore"]. *)
}

(* Smart constructor: strategies state what they know, everything else
   defaults. Keeps the record extensible without touching every literal. *)
let invocation ?(post_ns = 0) ?breakdown ?(isolated = false) ?(verify = Unverified)
    ?(cold_ns = 0) ?(io_ns = 0) ?(restore_on_path_ns = 0) ?(restore_label = "")
    ~on_path_ns ~outcome response =
  {
    on_path_ns;
    post_ns;
    response;
    breakdown;
    isolated;
    outcome;
    verify;
    cold_ns;
    io_ns;
    restore_on_path_ns;
    restore_label;
  }

let outcome_name = function
  | Completed -> "completed"
  | Crashed -> "crashed"
  | Hung -> "hung"
  | Poisoned -> "poisoned"

type status = [ `Clean | `Dirty | `Restoring | `Poisoned ]

(* One bounded slice of idle-time snapshot scrubbing. *)
type scrub_result =
  | Scrubbed of int * bool
      (** [n] blocks verified clean; [true] means the pass reached the end
          of the snapshot (the caller must stop rescheduling slices until
          the next idle period, or the event loop never drains). *)
  | Scrub_corrupt of string
      (** Corruption found in the stored snapshot: the strategy poisoned
          itself (and blasted dedup sharers) — kill + cold restart. *)
  | Scrub_skip
      (** Nothing to scrub: no snapshot, already poisoned, or scrubbing
          deferred (brownout). *)

type t = {
  name : string;
  init_ns : Gh_sim.Time_ns.t;
  invoke : Request.t -> invocation;
  snapshot_pages : unit -> int;
  describe : unit -> string;
  status : unit -> status option;
      (** The manager's lifecycle state, [None] for strategies without one
          (fork, base). The fail-closed trace checker polls this at
          dispatch time. *)
  kill : unit -> unit;
      (** SIGKILL the function process: whatever state it held is gone and
          the manager (if any) is poisoned. Idempotent. *)
  degrade : bool -> unit;
      (** Brownout hook: [degrade true] asks the strategy to defer
          non-critical recovery work (e.g. Groundhog's post-completion
          restore) until pressure passes; [degrade false] restores full
          service. Must never weaken isolation across security domains —
          strategies that cannot degrade safely ignore it. *)
  scrub : int -> scrub_result;
      (** [scrub blocks]: verify up to [blocks] stored snapshot blocks
          against their capture-time hashes. Driven by the container's
          idle-time scrubber; strategies without a snapshot (and degraded
          ones — scrubbing is the definition of non-critical work) return
          [Scrub_skip]. *)
  audit : unit -> [ `Intact | `Corrupt of string ] option;
      (** Ground-truth probe for experiments: does the process image the
          next request would see match the snapshot? [None] when the
          strategy has no such oracle (no snapshot, not clean via an
          actual restore). Free — reads memory only. *)
}

(* Constructor helpers for strategies (and tests) without a manager. *)
let no_status () = None
let no_kill () = ()
let no_degrade (_ : bool) = ()
let no_scrub (_ : int) = Scrub_skip
let no_audit () = None

let outcome_of_response (r : Function_model.response) =
  if r.Function_model.hung then Hung
  else if r.Function_model.crashed then Crashed
  else Completed

module Manager = Groundhog_core.Manager

let manager_status mgr : status =
  match Manager.status mgr with
  | Manager.Clean -> `Clean
  | Manager.Dirty -> `Dirty
  | Manager.Restoring -> `Restoring
  | Manager.Poisoned -> `Poisoned

(* The audit ran iff the policy is on; it is what failed the restore iff
   the manager's audit-failure count moved. *)
let manager_restore mgr =
  let failed0 = Manager.verify_failures mgr in
  match Manager.restore mgr with
  | Ok b ->
      let v =
        match Manager.verify mgr with
        | Manager.Verify_off -> Unverified
        | Manager.Verify_sampled _ | Manager.Verify_full ->
            Verified (Manager.last_verify_blocks mgr)
      in
      Ok (b, v)
  | Error f ->
      let v =
        if Manager.verify_failures mgr > failed0 then Verify_failed f.Manager.what
        else Unverified
      in
      Error (f, v)

let manager_scrub mgr blocks =
  match Manager.scrub mgr ~blocks with
  | `Skip -> Scrub_skip
  | `Checked (n, finished) -> Scrubbed (n, finished)
  | `Corrupt c ->
      Scrub_corrupt (Format.asprintf "%a" Groundhog_core.Snapshot.pp_corruption c)
