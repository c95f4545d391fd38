(** A simulated OS process: an address space plus threads.

    Syscall wrappers ([sys_mmap], [sys_brk], ...) are the function-side
    entry points: they charge the syscall's direct cost to the supplied
    account and then perform the layout change. (The restore engine instead
    goes through {!Ptrace.inject_syscall}, which additionally pays the
    injection overhead.) *)

type t = {
  pid : int;
  mem : Gh_mem.Address_space.t;
  mutable threads : Thread.t list;  (** Ascending tid; never empty. *)
  mutable next_tid : int;
  mutable fault : Gh_sim.Fault.t;
      (** Fault plan consulted by the kernel-side operations acting on this
          process (ptrace, procfs, snapshot copies). [Fault.none] by
          default: zero cost, no random draws. *)
  mutable traced : bool;
      (** Whether a {!Ptrace} session currently holds this process. Kept
          per-process (not in a global table) so recycled pids on distinct
          simulated nodes cannot collide. *)
}

val create : ?fault:Gh_sim.Fault.t -> mem:Gh_mem.Address_space.t -> n_threads:int -> unit -> t
(** A process with [n_threads] threads (≥ 1). *)

val set_fault : t -> Gh_sim.Fault.t -> unit
(** Install a fault plan; children created by {!fork} inherit it. *)

val n_threads : t -> int
val main_thread : t -> Thread.t
val find_thread : t -> int -> Thread.t option

val spawn_thread : t -> Gh_sim.Account.t -> Thread.t
(** clone(2): charged as one mmap (thread stack) plus a syscall. *)

val exit_thread : t -> Thread.t -> unit
(** Remove a thread. @raise Invalid_argument when removing the last one. *)

(** {2 Syscalls (function-side, charged)} *)

val sys_mmap :
  t -> Gh_sim.Account.t -> n_pages:int -> prot:Gh_mem.Prot.t -> Gh_mem.Vma.kind -> Gh_mem.Vma.t

val sys_munmap : t -> Gh_sim.Account.t -> Gh_mem.Vma.t -> unit
val sys_brk : t -> Gh_sim.Account.t -> int -> unit
val sys_mprotect : t -> Gh_sim.Account.t -> Gh_mem.Vma.t -> Gh_mem.Prot.t -> unit
val sys_madvise_dontneed : t -> Gh_sim.Account.t -> Gh_mem.Vma.t -> pos:int -> len:int -> unit

val recycle : t -> unit
(** Release the process's page buffers into this domain's
    {!Gh_sim.Buffer_pool} — the wait4-reap analog for discarded fork
    children. The process must never be touched again. *)

val fork : t -> Gh_sim.Account.t -> t
(** fork(2): the child gets a CoW copy of the address space and {e only the
    calling thread} — the standard POSIX semantics that make fork-based
    isolation unusable for multi-threaded runtimes (§3.2). Charged
    proportionally to VMAs and present pages (page-table duplication). *)
