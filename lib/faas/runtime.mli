(** Language-runtime behaviour models: C, CPython, Node.js.

    Captures the per-language characteristics the evaluation turns on:
    thread count after initialization (fork-based isolation only works when
    this is 1), address-space composition (Node maps memory aggressively —
    huge page counts dominate its scan costs), layout churn per invocation
    (syscall-injection work during restore), startup and warm-up costs
    (cold starts, snapshot timing), proxying cost of the actionloop wrapper
    (Groundhog interposes on stdin/stdout), fork peculiarities, and
    Node.js's time-dependent GC interaction with restoration (§5.3.1). *)

type lang = C | Python | Nodejs

type t = {
  lang : lang;
  threads : int;
      (** Threads alive after runtime initialization. C and CPython
          function processes are single-threaded (which is why the paper
          can evaluate FORK on them); Node.js keeps a worker pool. *)
  text_pages : int;  (** Binary + shared libraries (and JIT code). *)
  data_pages : int;
  stack_pages : int;
  arena_count : int;  (** Anonymous mappings created at init. *)
  init_ns : Gh_sim.Time_ns.t;  (** exec + runtime boot (container cold start). *)
  warmup_factor : float;
      (** Dummy-request time as a multiple of a normal invocation (lazy
          class loading makes the first run slower, §4.1). *)
  layout_churn : int;  (** Persistent layout changes per invocation. *)
  dirty_chunk_pages : int;
      (** Typical contiguity of dirtied pages: C kernels write arrays in
          long runs; CPython scatters reference-count updates across small
          object pages, leaving short dirty runs that restore expensively
          per page. *)
  proxy_fixed_ns : int;
      (** Fixed per-request cost of interposing on the platform protocol
          (high for Node.js, whose single-process wrapper we had to
          refactor into an actionloop shape, §5.3.1). *)
  proxy_per_kb_ns : int;  (** Plus this much per payload KiB copied. *)
  restore_warmup_ns : int;
      (** On-path penalty of the first invocation after a restore: madvised
          pages refault, caches and TLBs are cold, runtime bookkeeping was
          reverted. Grows with runtime complexity. *)
  fork_extra_ns : Gh_sim.Time_ns.t;
      (** Runtime-specific atfork work (CPython arena bookkeeping). *)
  gc_time_dependent : bool;
      (** Node.js: restoration reverts GC bookkeeping, re-triggering
          collections whose cost shows up as extra dirtying and latency. *)
}

val for_lang : lang -> t
val lang_to_string : lang -> string
val lang_suffix : lang -> string
(** The paper's benchmark tag: ["(c)"], ["(p)"] or ["(n)"]. *)
