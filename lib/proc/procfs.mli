(** The /proc view of a simulated process.

    This is Groundhog's observation channel: [read_maps] stands for
    /proc/pid/maps, [scan_soft_dirty] for walking /proc/pid/pagemap hunting
    bit 55, and [clear_refs] for writing "4" to /proc/pid/clear_refs. Costs
    are charged to the caller's account at this boundary, exactly where the
    real system pays them (§4.3, §4.4). *)

type maps_entry = {
  vma_id : int;
  start_addr : int;
  n_pages : int;
  prot : Gh_mem.Prot.t;
  kind : Gh_mem.Vma.kind;
}
(** One line of /proc/pid/maps. [vma_id] is a simulator convenience; the
    restore engine diffs by address range, as the real system must. *)

val read_maps : Gh_sim.Account.t -> Process.t -> (maps_entry list, Gh_sim.Fault.site) result
(** Charged per VMA parsed (also when a fault fires). Entries ascend by
    start address. *)

val scan_soft_dirty :
  Gh_sim.Account.t -> Process.t -> ((Gh_mem.Vma.t * Gh_mem.Bitmap.t) list, Gh_sim.Fault.site) result
(** Walk every mapped page's pagemap entry; return a {e copy} of each VMA's
    soft-dirty bitmap. Charged per mapped page — this is the scan whose
    cost grows with address-space size (Fig. 3 right, dashed). *)

val dirty_sets : Process.t -> (Gh_mem.Vma.t * Gh_mem.Bitmap.t) list
(** The same data, uncharged — what a userfaultfd-tracking manager already
    has in hand (the Uffd ablation). Never faults: no kernel crossing. *)

val clear_refs : Gh_sim.Account.t -> Process.t -> (unit, Gh_sim.Fault.site) result
(** Reset soft-dirty bits over the whole address space; charged per mapped
    page (the kernel walks the page tables). *)
