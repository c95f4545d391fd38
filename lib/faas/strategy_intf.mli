(** The contract between the platform's containers and a request-isolation
    strategy.

    The container does not know how isolation is implemented; it sees a
    {!t} with a one-time initialization cost and an [invoke] that reports,
    for each request, which costs sat on the request's critical path
    ([on_path_ns]) and which work must finish before the {e next} request
    may enter the container ([post_ns], e.g. Groundhog's restoration).
    Under low load [post_ns] overlaps idle time and is invisible in
    latency; under saturation it eats into throughput — exactly the split
    the paper's low-load / high-load workloads expose (§5.2).

    The {!outcome} field and the {!t}'s [status]/[kill] operations carry
    the failure model: a strategy reports hangs and failed recoveries, and
    the container layer drives kill → cold restart → re-snapshot. *)

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

(** What restore-time hash verification saw for an invocation. *)
type verify_outcome =
  | Unverified  (** No audit ran (policy off, or no restore happened). *)
  | Verified of int  (** Audit passed; the number of blocks it checked. *)
  | Verify_failed of string
      (** Audit caught corruption — the container is poisoned and this
          request must NOT have been served from the corrupt state. *)

type invocation = {
  on_path_ns : Gh_sim.Time_ns.t;
      (** Function execution incl. in-function isolation overheads (page
          faults, proxying). Determines invoker-measured latency. *)
  post_ns : Gh_sim.Time_ns.t;
      (** Off-critical-path work (restore / reset / reap) occupying the
          container's core before it can accept the next request. For a
          [Poisoned] outcome: the time burned by the failed attempt. *)
  response : Function_model.response;
  breakdown : Groundhog_core.Breakdown.t option;
      (** Restoration breakdown, for strategies that restore. *)
  isolated : bool;
      (** Did the strategy guarantee the next request sees a clean state? *)
  outcome : outcome;
  verify : verify_outcome;
      (** Hash-audit result for the restore work tied to this invocation
          (the restore that preceded it on-path, or the deferred one that
          followed). *)
  cold_ns : Gh_sim.Time_ns.t;
      (** Span attribution: one-time initialization paid on this request's
          critical path (cold start). Included in [on_path_ns]. *)
  io_ns : Gh_sim.Time_ns.t;
      (** Span attribution: actionloop interposition copy costs (input +
          output). Included in [on_path_ns]. *)
  restore_on_path_ns : Gh_sim.Time_ns.t;
      (** Span attribution: restore work forced onto the critical path
          (e.g. settling a brownout-deferred restore for a different
          principal). Included in [on_path_ns]. *)
  restore_label : string;
      (** Span name for the deferred [post_ns] work (e.g. ["gh-restore"],
          ["reap"]); [""] means a generic ["restore"]. *)
}

val invocation :
  ?post_ns:Gh_sim.Time_ns.t ->
  ?breakdown:Groundhog_core.Breakdown.t ->
  ?isolated:bool ->
  ?verify:verify_outcome ->
  ?cold_ns:Gh_sim.Time_ns.t ->
  ?io_ns:Gh_sim.Time_ns.t ->
  ?restore_on_path_ns:Gh_sim.Time_ns.t ->
  ?restore_label:string ->
  on_path_ns:Gh_sim.Time_ns.t ->
  outcome:outcome ->
  Function_model.response ->
  invocation
(** Smart constructor; every attribution field defaults to zero/empty. *)

val outcome_name : outcome -> string
(** Lower-case label for spans and metrics. *)

type status = [ `Clean | `Dirty | `Restoring | `Poisoned ]

(** One bounded slice of idle-time snapshot scrubbing. *)
type scrub_result =
  | Scrubbed of int * bool
      (** [n] blocks verified clean; [true] means the pass reached the end
          of the snapshot (stop rescheduling until the next idle period). *)
  | Scrub_corrupt of string
      (** Corruption found in the stored snapshot: the strategy poisoned
          itself (and blasted dedup sharers) — kill + cold restart. *)
  | Scrub_skip
      (** Nothing to scrub: no snapshot, already poisoned, or scrubbing
          deferred (brownout). *)

type t = {
  name : string;
  init_ns : Gh_sim.Time_ns.t;
      (** One-time container initialization: runtime boot, warm-up dummy
          request, snapshot (where applicable). *)
  invoke : Request.t -> invocation;
  snapshot_pages : unit -> int;
      (** Pages held in the manager's snapshot buffer (0 when the strategy
          keeps none). *)
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
          strategy has no such oracle. Free — reads memory only. *)
}

val no_status : unit -> status option
(** [fun () -> None]: for strategies (and test stubs) without a manager. *)

val no_kill : unit -> unit
(** No-op kill, for test stubs. *)

val no_degrade : bool -> unit
(** No-op degrade, for strategies with no deferrable work. *)

val no_scrub : int -> scrub_result
(** [fun _ -> Scrub_skip]: for strategies that keep no snapshot. *)

val no_audit : unit -> [ `Intact | `Corrupt of string ] option
(** [fun () -> None]: for strategies with no hash oracle. *)

val outcome_of_response : Function_model.response -> outcome
(** [Hung]/[Crashed]/[Completed] from the response flags — for strategies
    whose deferred work cannot fail. *)

val manager_status : Groundhog_core.Manager.t -> status
(** Lift a manager's lifecycle state into the polymorphic status. *)

val manager_restore :
  Groundhog_core.Manager.t ->
  ( Groundhog_core.Breakdown.t * verify_outcome,
    Groundhog_core.Manager.failure * verify_outcome )
  result
(** {!Groundhog_core.Manager.restore} plus the invocation's verify
    outcome: [Verified n] when the manager's policy audited the restore,
    [Verify_failed] when the audit is what poisoned it, [Unverified]
    otherwise. *)

val manager_scrub : Groundhog_core.Manager.t -> int -> scrub_result
(** {!Groundhog_core.Manager.scrub} as a {!scrub_result}. *)
