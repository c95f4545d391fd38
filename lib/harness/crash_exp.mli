(** Crash recovery (extension): restore-as-fault-tolerance.

    A function that crashes mid-request leaves its process in an arbitrary
    state. BASE has nothing to roll back to — the platform rebuilds the
    container, paying a full cold start; Groundhog (and GH_NOP, which keeps
    the snapshot precisely for this) recovers with an ordinary
    restoration, and FORK simply discards the dead child. This experiment
    sweeps the crash rate and reports the per-request container occupancy
    under each strategy: an incidental but real benefit of keeping a clean
    snapshot around. *)

type point = {
  crash_rate : float;
  occupancy_ms : (Gh_isolation.Registry.id * float) list;
      (** Mean on-path + recovery time per {e successful} request: crashed
          episodes still occupy the container (attempt + recovery) but
          deliver nothing, so they inflate the numerator only. *)
  crashes : (Gh_isolation.Registry.id * int) list;
      (** Observed crash count per strategy (each runs its own seeded
          stream, so counts differ across strategies). *)
}

val run :
  Config.t -> ?rates:float list -> ?requests:int -> Gh_workloads.Catalog.entry -> point list

val print : Format.formatter -> Gh_workloads.Catalog.entry -> point list -> unit
