(** Fault injection (robustness extension): the fail-closed recovery
    pipeline under seeded faults.

    Each container gets a deterministic fault plan (every injection site —
    ptrace stops, /proc reads, snapshot page copies, restore syscalls,
    function crashes and hangs — fails with the swept probability, from its
    own seeded stream), and the invoker runs with recovery enabled: hung
    requests are killed at a timeout and retried under capped backoff,
    poisoned containers are cold-restarted (kill + re-exec + warm-up +
    re-snapshot, off the critical path), and repeat offenders are
    quarantined. The experiment reports availability, goodput, MTTR and
    p99 latency per strategy and fault rate.

    The fail-closed property is checked on every dispatch: a strategy with
    a lifecycle state must report [`Clean] at the instant a request enters
    it. Any violation is counted in [unsafe_served] — the harness treats a
    nonzero total as a hard failure. *)

type row = {
  strategy : Gh_isolation.Registry.id;
  fault_rate : float;
  offered : int;
  delivered : int;  (** Responses produced (including crash-error ones' complement). *)
  crashed : int;  (** Error responses from mid-request crashes. *)
  failed : int;  (** Abandoned after the retry budget, plus lost in wedges. *)
  timeouts : int;
  retries : int;
  quarantined : int;
  replacements : int;  (** Successful cold restarts. *)
  unsafe_served : int;  (** Requests served by a non-clean process — must be 0. *)
  availability : float;  (** delivered / offered. *)
  goodput_rps : float;  (** Delivered responses per simulated second. *)
  mttr_ms : float;  (** Mean failure-to-serving-again time; NaN without samples. *)
  p99_ms : float;  (** Of delivered end-to-end latencies; NaN without samples. *)
}

type point = { fault_rate : float; rows : row list }

val strategies : Gh_isolation.Registry.id list
(** BASE, GH, GH_NOP, FORK. *)

val default_rates : float list
(** [0, 1e-4, 1e-3, 1e-2] per-site fault probability. *)

val measure :
  Config.t ->
  Gh_isolation.Registry.id ->
  Gh_faas.Function_model.spec ->
  fault_rate:float ->
  n_containers:int ->
  n_requests:int ->
  row option
(** One cell of the sweep; [None] when the strategy doesn't support the
    spec. Deterministic: the same config seed, spec and rate reproduce the
    identical fault schedule and output. *)

val run :
  Config.t -> ?rates:float list -> ?requests:int -> Gh_workloads.Catalog.entry -> point list
(** Two containers per cell. *)

val print : Format.formatter -> Gh_workloads.Catalog.entry -> point list -> unit

val sweep : Sweep.t
(** The `gh-bench fault` descriptor: default 120 requests per cell; the
    smoke grid is rates 0 and 1e-3 with 30 requests. *)
