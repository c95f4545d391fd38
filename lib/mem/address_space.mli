(** A process address space: sorted, non-overlapping VMAs plus the brk.

    Two kinds of entry point, mirroring who pays for what on real hardware:

    - {b Function-side accessors} ([read_page], [write_page], [dirty_range],
      [read_range]) charge the given account for the memory access {e and}
      any page faults it triggers — demand-zero on first touch, CoW copy
      in forked children, the soft-dirty re-arm fault after a [clear_refs],
      or the userfaultfd round trip under Uffd tracking. These are the
      on-critical-path costs of §5.2.1.

    - {b Kernel-side raw access} ([peek], [poke]) is uncharged mechanism;
      the ptrace / procfs layer in [gh_proc] charges for it at the same
      boundary the real system pays (per pagemap entry scanned, per page
      copied, per injected syscall).

    Layout operations ([map], [unmap], [set_brk], ...) only maintain the
    mapping; their syscall cost is charged by the caller (the syscall layer
    during function execution, or the restore engine via injected
    syscalls). *)

type t

val create :
  ?text_pages:int ->
  ?data_pages:int ->
  ?heap_pages:int ->
  ?stack_pages:int ->
  cost:Gh_kernel.Cost.t ->
  unit ->
  t
(** A conventional layout: text (r-x), data (rw-), brk heap (rw-), stack
    (rw-), and an empty mmap area. Text and data pages start present (the
    loader touched them); heap and stack start lazy. *)

val cost : t -> Gh_kernel.Cost.t
val vmas : t -> Vma.t list
(** Ascending by start address. *)

val iter_vmas : t -> (Vma.t -> unit) -> unit
(** Apply to each VMA in ascending start order, without materialising the
    list — the allocation-free walk for scan-heavy callers (procfs,
    statistics). *)

val vma_count : t -> int
val brk : t -> int
val heap : t -> Vma.t
val stack : t -> Vma.t
val find_vma : t -> int -> Vma.t option
val find_vma_by_id : t -> int -> Vma.t option

(** {2 Function-side memory access (charged)} *)

val write_page : t -> Gh_sim.Account.t -> Vma.t -> int -> int -> unit
(** [write_page t acct vma i v] writes word [v] to page [i]. *)

val read_page : t -> Gh_sim.Account.t -> Vma.t -> int -> int

val write_addr : t -> Gh_sim.Account.t -> int -> int -> unit
(** Address-based variant. @raise Invalid_argument on an unmapped address
    (a simulated segfault). *)

val read_addr : t -> Gh_sim.Account.t -> int -> int

val dirty_range : t -> Gh_sim.Account.t -> Vma.t -> pos:int -> len:int -> value:int -> unit
(** Write [value] to [len] consecutive pages starting at [pos]; the bulk
    equivalent of [write_page], with one aggregate charge. *)

val read_range : t -> Gh_sim.Account.t -> Vma.t -> pos:int -> len:int -> unit
(** Touch (read) [len] consecutive pages. *)

val dirty_ranges :
  t -> Gh_sim.Account.t -> Vma.t -> int array -> first:int -> stop:int -> value:int -> unit
(** [dirty_ranges t acct vma ranges ~first ~stop ~value] applies ranges
    [first .. stop-1] of [ranges], where range [r] is pages
    [ranges.(2r)] to [ranges.(2r) + ranges.(2r+1) - 1], in order. Each
    range has exactly the effect, fault counts ([fault_gran] rounding
    included) and charge of its own {!dirty_range} call, but the VMA's
    checks and arrays are taken once and the sum is charged once. A range
    that raises raises what its {!dirty_range} call would, after the
    ranges before it are applied and charged. {!dirty_range} is the
    one-range case.
    @raise Invalid_argument if [first .. stop-1] are not range indices of
    [ranges]. *)

val read_ranges :
  t -> Gh_sim.Account.t -> Vma.t -> int array -> first:int -> stop:int -> unit
(** {!dirty_ranges} for reads: each range as its own {!read_range}. *)

(** Scalar reference implementations of the bulk accessors, retained for
    the differential property tests and the mem bench group. Identical
    observable behavior (bitmaps, data, fault counts, charged ns) to the
    word-batched kernels above — per-page loops over the same primitive
    the batched code falls back to for CoW-salvage words. *)
module Scalar : sig
  val dirty_range :
    t -> Gh_sim.Account.t -> Vma.t -> pos:int -> len:int -> value:int -> unit

  val read_range : t -> Gh_sim.Account.t -> Vma.t -> pos:int -> len:int -> unit
end

(** {2 Kernel-side raw access (uncharged)} *)

val peek : Vma.t -> int -> int
(** Read a page's word without faults or charges (and without marking the
    page present: snapshots see the true state). *)

val poke : Vma.t -> int -> int -> unit
(** Kernel write: sets the word, marks the page present and soft-dirty
    (a restore write does modify memory; Groundhog resets SD bits after
    restoring, which is what makes this safe). Clears any pending CoW. *)

val poke_range : Vma.t -> pos:int -> len:int -> src:int array -> src_pos:int -> unit
(** Bulk [poke]: blit [len] words from [src] starting at [src_pos] into
    pages [pos, pos+len), with word-batched bitmap updates. The restore
    copy backend. *)

val zero_range : Vma.t -> pos:int -> len:int -> unit
(** Bulk [poke] of zeros: the restore stack-zeroing backend. *)

(** {2 Layout operations (mechanism only)} *)

val map : t -> n_pages:int -> prot:Prot.t -> Vma.kind -> Vma.t
(** Allocate at the mmap cursor. *)

val map_at : t -> start_addr:int -> n_pages:int -> prot:Prot.t -> Vma.kind -> Vma.t
(** Map at a fixed address (used by restore to re-create removed regions).
    @raise Invalid_argument if the range overlaps an existing VMA. *)

val unmap : t -> Vma.t -> unit
(** @raise Invalid_argument if the VMA is not part of this space. *)

val set_brk : t -> int -> unit
(** Grow or shrink the heap; new pages are lazy (non-present).
    @raise Invalid_argument below the heap base. *)

val mprotect : t -> Vma.t -> Prot.t -> unit

val madvise_dontneed : t -> Vma.t -> pos:int -> len:int -> unit
(** Drop frames: pages become non-present, zeroed, clean. *)

val resize_vma : t -> Vma.t -> int -> unit
(** Grow/shrink a VMA in place (stack growth, mremap-style growth).
    @raise Invalid_argument if growth would overlap the next VMA. *)

(** {2 Soft-dirty facility} *)

val sd_enabled : t -> bool
val clear_refs : t -> unit
(** Reset every soft-dirty bit and arm the re-arm faults (the write to
    /proc/pid/clear_refs). Marks tracking as enabled. *)

(** {2 Fork / CoW} *)

val clone_cow : t -> t
(** Child address space: identical layout and contents; every present page
    CoW-pending and first-touch-pending. *)

val recycle : t -> unit
(** Release every VMA's page buffer into this domain's
    {!Gh_sim.Buffer_pool}. Only for spaces nothing will touch again
    (a reaped fork child); any later page access raises. *)

val arm_cow_all : t -> unit
(** Make every present page CoW-pending in place — the FAASM-style reset,
    where the linear memory is remapped copy-on-write onto the snapshot. *)

val set_cow_hook : t -> (Vma.t -> int -> unit) option -> unit
(** Install a salvage hook: it fires (with the page's contents still
    intact) just before a CoW-armed page is first overwritten, zapped by
    madvise, dropped by a brk/mremap shrink, or unmapped. Incremental
    snapshots (§5.5's proposed optimization) use it to save original page
    contents lazily — manager memory then grows with the pages actually
    modified, not the whole footprint. *)

(** {2 Statistics (uncharged)} *)

val total_pages : t -> int
val present_pages : t -> int
val dirty_pages : t -> int
