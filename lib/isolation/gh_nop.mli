(** GH_NOP: Groundhog with restoration disabled (§5.1).

    The manager still interposes on the protocol and takes the initial
    snapshot (arming soft-dirty tracking once), but never restores. This is
    the configuration for consecutive requests from one security domain; it
    also isolates Groundhog's tracking cost from its restoration cost —
    the difference between GH and GH_NOP is the restoration.

    Because the soft-dirty bits set during the first invocation are never
    reset, later invocations take no re-arm faults — GH_NOP's in-function
    overhead is just the proxying. That property {e emerges} from the
    substrate here; it is not special-cased. *)

val make :
  ?verify:Groundhog_core.Manager.verify ->
  ?dedup:Groundhog_core.Dedup.t ->
  ?fault:Gh_sim.Fault.t ->
  rng:Gh_sim.Rng.t ->
  Gh_faas.Function_model.spec ->
  Gh_faas.Strategy_intf.t
(** [verify] (default off) hash-audits the crash-restore path — the only
    restore GH_NOP ever performs. [dedup] registers the snapshot in a
    cross-container index, like {!Gh.make}; unlike GH, [snapshot_pages]
    still reports every present page. *)
