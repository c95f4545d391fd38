(** The calibrated cost model of the simulated kernel.

    Every substrate operation charges simulated nanoseconds according to the
    constants below. The constants are calibrated (see DESIGN.md §6) so the
    anchors of the paper's Appendix A hold approximately on the default
    profile: a C hello-world restores in ~0.5 ms, a Python one in ~1.7 ms, a
    Node.js process with ~157K mapped pages in ~13 ms, a soft-dirty re-arm
    fault is several times cheaper than a CoW copy fault, pagemap scans are
    linear in mapped pages, and restoration copies are linear in dirtied
    pages with a cheaper bulk rate once contiguous runs can be coalesced.

    Experiments never edit constants in place: use [{ default with ... }]
    to derive variant profiles (e.g. the ablation benches). *)

type tracking =
  | Soft_dirty
      (** Kernel-maintained dirty bits: cheap per-write re-arm fault; the
          restore-time scan walks every mapped page's pagemap entry. *)
  | Uffd
      (** userfaultfd write-protection: every first write takes a user-space
          round trip (expensive), but the manager already knows the dirty
          set, so no restore-time scan is needed. The paper prototyped and
          rejected this (§4.3); we keep it as an ablation. *)
  | Kernel_list
      (** The paper's footnote-6 hypothetical: a custom in-kernel facility
          that hands the manager the {e list} of modified pages. Writes pay
          the ordinary soft-dirty re-arm fault; the restore-time walk costs
          per {e dirty} page instead of per mapped page. Requires kernel
          changes, which Groundhog's design rules out — kept as the upper
          bound an in-kernel assist could buy. *)

type t = {
  tracking : tracking;
  uffd_fault_ns : int;
      (** Write-protect fault handled in user space (Uffd tracking only). *)
  (* -- In-function memory access (used by workload models). -- *)
  page_write_ns : int;  (** Write one word to an already-mapped page. *)
  page_read_ns : int;  (** Read one word from an already-mapped page. *)
  (* -- Page-fault flavours. -- *)
  sd_fault_ns : int;
      (** Minor fault taken on the first write to a page after a soft-dirty
          reset: the kernel re-arms the SD bit. This is Groundhog's only
          on-critical-path overhead (§5.2.1). *)
  cow_fault_ns : int;
      (** Copy-on-write fault: trap plus a 4 KiB page copy. Paid by the
          FORK and FAASM strategies on every first write to a shared page. *)
  first_touch_fault_ns : int;
      (** First access (even a read) to a page whose PTE does not exist yet
          in a freshly forked child: dTLB miss + lazy page-table population
          (§5.2.3's explanation of FORK's slope vs address-space size). *)
  demand_zero_fault_ns : int;
      (** First touch of a lazily allocated anonymous page. *)
  (* -- /proc introspection. -- *)
  maps_read_per_vma_ns : int;  (** Parse one line of /proc/pid/maps. *)
  pagemap_scan_per_page_ns : int;
      (** Read one 64-bit pagemap entry while hunting soft-dirty bits. *)
  clear_refs_per_page_ns : int;
      (** Per-page cost of the clear_refs full-address-space walk. *)
  (* -- ptrace orchestration. -- *)
  ptrace_attach_ns : int;  (** Fixed attach/seize cost. *)
  ptrace_interrupt_per_thread_ns : int;  (** Stop one thread. *)
  ptrace_getregs_per_thread_ns : int;
  ptrace_setregs_per_thread_ns : int;
  ptrace_detach_per_thread_ns : int;
  syscall_inject_ns : int;
      (** One injected syscall: two SIGTRAP round-trips plus register
          save/restore (§4.4's layout-reversal mechanism). *)
  (* -- Snapshot / restore memory copying. -- *)
  snapshot_copy_per_page_ns : int;  (** Copy one page into manager memory. *)
  restore_copy_per_page_ns : int;  (** Per 4 KiB page moved. *)
  restore_copy_run_setup_ns : int;
      (** Fixed setup per contiguous run: Groundhog coalesces each maximal
          run of dirty pages into a single large copy, so restoring costs
          [setup + len·per_page] per run. As dirty density grows past
          ~50–60 %, scattered pages merge into fewer longer runs, the
          per-run setups amortize, and the latency-vs-density slope drops —
          the Fig. 3 (left) slope change. *)
  coalesce_runs : bool;
      (** Ablation hook: [false] restores each page as its own operation
          (setup charged per page). *)
  stack_zero_per_page_ns : int;  (** Zero one page of the stack. *)
  layout_diff_per_vma_ns : int;  (** Compare one VMA against the snapshot. *)
  (* -- Direct syscall costs (paid by the function while executing). -- *)
  mmap_ns : int;
  munmap_ns : int;
  brk_ns : int;
  mprotect_ns : int;
  madvise_ns : int;
  (* -- fork(2). -- *)
  fork_base_ns : int;
  fork_per_vma_ns : int;
  fork_per_present_page_ns : int;
      (** Page-table duplication cost per present page. *)
  (* -- FAASM-style linear-memory reset. -- *)
  faasm_reset_base_ns : int;
  faasm_reset_per_dirty_page_ns : int;
  (* -- Snapshot integrity. -- *)
  hash_per_page_ns : int;
      (** Hash one 4 KiB page already in cache (xxHash-class throughput).
          The integrity layer's accounting unit: capture-time hashing,
          restore-time verification and idle scrubbing are *tallied* at
          this rate in the metrics registry, but never injected into the
          event timeline (see DESIGN §14's charging model). *)
}

val default : t
(** The calibrated profile described above. *)

val no_coalescing : t
(** Ablation: restoration never batches contiguous dirty runs — every page
    pays the per-operation setup. *)

val uffd_tracking : t
(** The §4.3 userfaultfd ablation profile. *)

val kernel_list_tracking : t
(** The footnote-6 hypothetical: in-kernel dirty-page lists — normal write
    faults, dirty-proportional restore-time walk. *)
