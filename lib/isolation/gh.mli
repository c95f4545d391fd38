(** GH: Groundhog — full sequential request isolation (§4).

    Container initialization runs the dummy request and takes the snapshot;
    each invocation pays the stdin/stdout proxying cost and the soft-dirty
    re-arm faults on the critical path, and a restoration off the critical
    path before the next request may enter. *)

type interposition =
  | Intercept
      (** The evaluated configuration (§4.5, footnote 7): the manager
          copies every input and output through its own pipes — no platform
          changes required. *)
  | Platform_signal
      (** §4.5's optimization: the platform forwards inputs directly to the
          function process after waiting for the manager's clean signal,
          and outputs bypass the manager — eliminating the copy overhead at
          the price of a small trusted platform change. *)

val make :
  ?paranoid:bool ->
  ?verify:Groundhog_core.Manager.verify ->
  ?dedup:Groundhog_core.Dedup.t ->
  ?mode:Groundhog_core.Manager.mode ->
  ?interposition:interposition ->
  ?fault:Gh_sim.Fault.t ->
  rng:Gh_sim.Rng.t ->
  Gh_faas.Function_model.spec ->
  Gh_faas.Strategy_intf.t
(** [paranoid] verifies each restore bit-for-bit (testing). [verify] (default off)
    hash-audits each restore and reports the result on the invocation's
    [verify] field; an audit failure poisons the manager and — when the
    corrupt block is dedup-shared — blasts every sharer. [dedup]
    registers the snapshot in a cross-container index (eager mode only);
    [snapshot_pages] then reports only the pages this container actually
    stores, and [kill] unregisters. [mode] selects eager or incremental
    (§5.5) snapshots; default eager. [fault] attaches a fault plan to the
    function process (default {!Gh_sim.Fault.none}); a fault during the
    initial snapshot raises [Failure] (a failed container build).

    A failed restore poisons the manager and surfaces as a
    [Poisoned]-outcome invocation whose [post_ns] is the manager time the
    attempt burned; a hang surfaces as [Hung] with no restore performed. *)

type state
(** The strategy's internals, exposed for the policy ablation and tests. *)

val make_with_state :
  ?policy:Policy.t ->
  ?paranoid:bool ->
  ?verify:Groundhog_core.Manager.verify ->
  ?dedup:Groundhog_core.Dedup.t ->
  ?mode:Groundhog_core.Manager.mode ->
  ?interposition:interposition ->
  ?fault:Gh_sim.Fault.t ->
  rng:Gh_sim.Rng.t ->
  Gh_faas.Function_model.spec ->
  Gh_faas.Strategy_intf.t * state
(** {!make}, also returning the internals. [policy] defaults to
    [Always_isolate]; with [Trust_same_principal] the
    {!Gh_faas.Strategy_intf.t.invoke} path still restores eagerly (no
    lookahead), but {!invoke_with_lookahead} exposes the skip. *)

val manager : state -> Groundhog_core.Manager.t
val instance : state -> Gh_faas.Function_model.instance

val actionloop : state -> Gh_faas.Actionloop.t
(** The interposed pipe pair (for tests probing the §4.5 invariant). *)

val deferred_restores : state -> int
(** How many post-completion restores brownout degradation deferred. Each
    deferral is settled at the next dispatch: free when the same principal
    returns (§4.4 same-security-domain argument), an on-path restore when a
    different principal arrives — so no request ever runs over another
    domain's residue. *)

val invoke_with_lookahead :
  state -> Gh_faas.Request.t -> next:Gh_faas.Request.t option -> Gh_faas.Strategy_intf.invocation
(** The §4.4 optimization: when the next queued request is visible and the
    policy trusts the transition, the rollback is skipped ([post_ns] = 0).
    With no lookahead the restore always runs (the safe default). *)
