(** Executable models of FaaS functions.

    A {!spec} describes a function's measurable behaviour: how long it
    computes, how many pages it maps, dirties and reads per invocation, how
    much layout churn it causes, its payload sizes, and its pathologies
    (memory leaks, residue-copying bugs, Node.js GC/restore interaction).
    The 58-benchmark catalog in [gh_workloads] instantiates specs from the
    paper's Appendix A measurements.

    {!build} turns a spec into an {!instance}: a live simulated process
    whose address space has the spec's composition, plus deterministic
    write/read plans. {!invoke} then {e executes} an activation against
    that process — every page write goes through the fault-accounted
    substrate, so isolation overheads (SD re-arm faults, CoW copies,
    restore work) are computed from mechanism, not transcribed from the
    paper. *)

type spec = {
  name : string;
  lang : Runtime.lang;
  exec_ns : Gh_sim.Time_ns.t;  (** Pure compute per invocation (baseline). *)
  exec_jitter : float;  (** Relative sigma of run-to-run noise. *)
  mapped_pages : int;  (** Address-space size after warm-up. *)
  dirtied_pages : int;  (** Pages written per invocation. *)
  read_pages : int;  (** Pages read per invocation (working set). *)
  input_kb : int;
  output_kb : int;
  memleak_pages : int;  (** Pages leaked (never freed) per invocation. *)
  leak_slowdown_ns : int;  (** Extra compute per resident leaked page. *)
  buggy_residue_leak : bool;
      (** The §1 bug: the function copies residual foreign data into its
          response. *)
  gc_extra_dirty : int;
      (** Node.js only: extra pages dirtied on invocations that follow a
          restore (reverted GC bookkeeping re-triggers collection). *)
  gc_exec_penalty : float;
      (** Node.js only: relative compute penalty on post-restore
          invocations. *)
  wasm_factor : float option;
      (** exec ratio wasm/native when compiled for FAASM; [None] if the
          benchmark was not ported to WebAssembly. *)
  fault_gran : int;
      (** Pages covered by one dirtying fault in the write pool (1 = base
          pages; >1 models transparent-huge-page-backed heaps, where the
          paper's Node benchmarks restore far more pages than they
          fault). *)
  scattered_writes : bool;
      (** Dirty pages Bernoulli-randomly instead of in chunks (the §5.2
          microbenchmark's pattern): dirty-run lengths then follow random
          run statistics, which is what makes restore coalescing kick in
          around 60 % density. *)
  crash_rate : float;
      (** Probability per invocation that the (buggy) function crashes
          mid-request, leaving the process in an arbitrary state. Restore-
          capable strategies recover by rolling back; BASE must rebuild the
          container. *)
  hang_rate : float;
      (** Probability per invocation that the function never returns
          (deadlock, infinite loop): no response is produced, the container
          is stuck until the platform's request timeout kills and replaces
          it. *)
}

val default_spec : spec
(** A small, fast C-like function; override fields as needed. *)

type response = {
  value : int;  (** The function's output word. *)
  residue : int list;
      (** Foreign secrets the (buggy) function observed and exfiltrated.
          Empty for correct functions — and, with Groundhog, provably empty
          even for buggy ones. *)
  output_kb : int;
  crashed : bool;
      (** The function process died mid-request; no usable result. *)
  hung : bool;
      (** The function never returned; this response object exists only for
          the simulator's bookkeeping — the platform sees nothing until its
          timeout fires. *)
}

type instance

val build : ?cost:Gh_kernel.Cost.t -> spec -> instance
(** Spawn the function process with the spec's memory composition. The
    heap and anonymous arenas start lazy; {!warmup} pages them in.
    [cost] defaults to {!Gh_kernel.Cost.default}. *)

val proc : instance -> Gh_proc.Process.t
val spec : instance -> spec
val runtime : instance -> Runtime.t

val mark_clean : instance -> unit
(** Declare the current state as the clean baseline (call right after
    {!warmup}, when the snapshot is about to be — or has just been —
    taken): rebases the brk high-water mark and the leak baseline. *)

val warmup : instance -> Gh_sim.Account.t -> Gh_sim.Rng.t -> Gh_sim.Time_ns.t
(** The dummy request (§4.1): triggers lazy paging, lazy loading and
    global-state initialization so the snapshot captures them. Returns the
    time it took (slower than a regular invocation by the runtime's
    warm-up factor). *)

val boot : instance -> fault:Gh_sim.Fault.t -> Gh_sim.Rng.t -> Gh_sim.Account.t
(** The prologue every isolation strategy shares: attach the [fault] plan
    to the process, serve the {!warmup} request on a fresh account, and
    {!mark_clean}. Returns that account, which holds exactly the warm-up's
    cost; a strategy adds its own initialization (a snapshot, an image
    serialization) to it. *)

val invoke :
  instance ->
  Gh_sim.Account.t ->
  Gh_sim.Rng.t ->
  post_restore:bool ->
  Request.t ->
  response
(** Execute one activation: layout churn, page dirtying with the request's
    secret, working-set reads (collecting residue if buggy), leak growth,
    compute-time charge, register scramble. [post_restore] tells the model
    the process was restored since the last invocation (Node.js GC
    effects). *)

val invoke_on :
  instance ->
  Gh_proc.Process.t ->
  Gh_sim.Account.t ->
  Gh_sim.Rng.t ->
  post_restore:bool ->
  Request.t ->
  response
(** Execute the activation inside a forked child of the instance's process
    (fork-based isolation): the child's VMAs are resolved by id, writes pay
    CoW copy faults, reads pay first-touch faults.
    @raise Invalid_argument if the process is not a fork of this instance. *)

val residue_oracle : instance -> Principal.t -> int
(** Testing oracle: scan the whole address space (uncharged) and count
    present pages holding a secret that does not belong to [principal].
    Zero after a Groundhog restore — that is the security property. *)
