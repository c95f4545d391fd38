(** The ptrace facility: interrupt, register access, syscall injection,
    memory writes.

    A {!session} is an attachment of a tracer (the Groundhog manager) to a
    process. While attached, all of the tracee's threads are stopped, so
    the tracer can mutate its state consistently. Every operation charges
    the tracer's account — these are the off-critical-path costs that make
    up the Fig. 8 restoration breakdown.

    Operations that can fail under an installed {!Gh_sim.Fault} plan
    return a [result] carrying the fault site; the cost of the attempt is
    still charged. Misuse (double attach, using a dead session, bad
    ranges) remains an exception — those are caller bugs, not faults. *)

type session

exception Already_attached
exception Not_attached

val attach : Gh_sim.Account.t -> Process.t -> (session, Gh_sim.Fault.site) result
(** Seize the process and interrupt every thread. Charged one attach plus
    one interrupt per thread (also on fault-induced failure).
    @raise Already_attached if some tracer holds the process. *)

val detach : session -> Gh_sim.Account.t -> unit
(** Resume all threads. Charged per thread. The session is dead after.
    Idempotent: detaching a dead session is a no-op (and free) — the
    recovery path may kill a container whose restore already tore the
    session down. Never faults. *)

val is_attached : Process.t -> bool

val getregs : session -> Gh_sim.Account.t -> Thread.t -> (Registers.t, Gh_sim.Fault.site) result
(** A copy of the thread's registers. *)

val setregs :
  session -> Gh_sim.Account.t -> Thread.t -> Registers.t -> (unit, Gh_sim.Fault.site) result

type injected =
  | Mmap_at of { start_addr : int; n_pages : int; prot : Gh_mem.Prot.t; kind : Gh_mem.Vma.kind }
  | Munmap of Gh_mem.Vma.t
  | Brk of int
  | Mremap of { vma : Gh_mem.Vma.t; n_pages : int }
  | Mprotect of Gh_mem.Vma.t * Gh_mem.Prot.t
  | Madvise_dontneed of { vma : Gh_mem.Vma.t; pos : int; len : int }

val inject_syscall :
  session -> Gh_sim.Account.t -> injected -> (Gh_mem.Vma.t option, Gh_sim.Fault.site) result
(** Execute a syscall inside the stopped tracee (save registers, point RIP
    at a syscall instruction, resume, trap, restore — modelled as one
    [syscall_inject_ns] charge plus the syscall's own cost). Returns the
    created VMA for [Mmap_at], [None] otherwise. A fault aborts before
    the layout change but after the injection charge. *)

val write_pages :
  session ->
  Gh_sim.Account.t ->
  Gh_mem.Vma.t ->
  pos:int ->
  len:int ->
  src:int array ->
  src_pos:int ->
  (unit, Gh_sim.Fault.site) result
(** Restore page contents from the manager's snapshot buffer. The whole
    contiguous run is coalesced into one copy operation — one setup charge
    plus a per-page rate — the §5.2.2 coalescing optimization. (With
    [coalesce_runs = false] every page pays its own setup.) *)

val zero_pages :
  session -> Gh_sim.Account.t -> Gh_mem.Vma.t -> pos:int -> len:int -> (unit, Gh_sim.Fault.site) result
(** Zero a run of pages at the stack-zeroing rate (cheaper than restoring
    from the snapshot buffer: no source read). *)

(** {2 Charges without the data movement}

    The restore engine moves page data a bitmap word at a time itself;
    these charge what {!write_pages} and {!zero_pages} charge and pass the
    same [Ptrace_write] site, once per call. *)

val write_runs :
  session -> Gh_sim.Account.t -> runs:int -> pages:int -> (unit, Gh_sim.Fault.site) result
(** [runs] coalesced copy runs of [pages] pages in all: the sum of what
    {!write_pages} charges for each. The site is passed once per call, so
    under a live fault plan call it once per run; with
    {!Gh_sim.Fault.none} one call may cover a whole region. *)

val zero_run : session -> Gh_sim.Account.t -> len:int -> (unit, Gh_sim.Fault.site) result
(** One zeroing run of [len] pages, as {!zero_pages} charges it. Per run
    only: the halved setup rounds down run by run. *)
