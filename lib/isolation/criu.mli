(** CRIU-style request isolation (§6, related work).

    Checkpoint/Restore-In-Userspace-based snapshotting serializes the whole
    process image (all present pages, file descriptors, credentials,
    namespaces) and restores by deserializing it back — which is why the
    paper dismisses it for request isolation: restoration costs are on the
    order of {e seconds} per container, against Groundhog's milliseconds.
    VAS-CRIU's in-memory address-space images get that to ~0.5 s; we model
    that favourable in-memory variant.

    The isolation is real in the simulation (the state truly reverts); the
    charged cost is the image-deserialization model: a fixed base plus a
    per-present-page rate, independent of how little was dirtied — the
    structural flaw Groundhog's dirty-proportional restore fixes. *)

val make :
  ?verify:Groundhog_core.Manager.verify ->
  ?fault:Gh_sim.Fault.t ->
  rng:Gh_sim.Rng.t ->
  Gh_faas.Function_model.spec ->
  Gh_faas.Strategy_intf.t
(** The image lives in a {!Groundhog_core.Manager}, which also keeps its
    integrity state. [verify] (default off) hash-audits each image
    restore; an audit failure surfaces as a [Poisoned] invocation with
    [Verify_failed] and the strategy never serves again (its scrub/audit
    hooks go silent). Unlike GH, CRIU reports no manager [status] and its
    [kill] is a no-op. *)

val restore_cost_ns : present_pages:int -> int
(** The modelled image-restore cost (exposed for tests and tables). *)
