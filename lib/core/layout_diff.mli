(** Diffing the current memory layout against the snapshot (§4.4).

    The manager compares /proc/pid/maps against the layout recorded in the
    snapshot to identify regions that appeared, disappeared, changed size,
    or changed protection during the invocation. The comparison is by
    address range, as the real system's must be. *)

type change =
  | Added of Gh_proc.Procfs.maps_entry
      (** Mapped now, absent from the snapshot: must be munmapped. *)
  | Removed of Snapshot.region
      (** In the snapshot, unmapped now: must be re-mapped and refilled. *)
  | Resized of { now : Gh_proc.Procfs.maps_entry; snap : Snapshot.region }
      (** Same base address, different length: brk for the heap,
          mremap otherwise. *)
  | Prot_changed of { now : Gh_proc.Procfs.maps_entry; snap : Snapshot.region }

val diff :
  Gh_sim.Account.t ->
  cost:Gh_kernel.Cost.t ->
  Snapshot.t ->
  Gh_proc.Procfs.maps_entry list ->
  change list
(** Charged per VMA compared. A region that merely moved appears as one
    [Added] plus one [Removed], which the reversal handles naturally. *)
