(** Deterministic, seeded fault injection for the simulated OS.

    A fault plan maps {e injection sites} (ptrace stops, /proc reads,
    snapshot page copies, function crashes and hangs) to rules: a
    per-occurrence probability, a list of scheduled occurrence indices,
    or both. Every site draws from its own {!Rng} stream keyed by the
    site name, so the schedule of one site never perturbs another and
    the same seed + rules reproduce the exact same fault sequence.

    The distinguished {!none} plan makes the disabled case free: callers
    guard every injection point with {!is_none} (a pointer comparison),
    so with faults off no random numbers are drawn and no state is
    touched — simulation output is bit-identical to a build without the
    fault layer. *)

type site =
  | Ptrace_attach      (** attaching the tracer to a process *)
  | Ptrace_regs        (** reading or writing register sets *)
  | Ptrace_inject      (** injecting a syscall into the tracee *)
  | Ptrace_write       (** writing pages through the tracer *)
  | Procfs_maps        (** reading /proc/pid/maps *)
  | Procfs_scan        (** scanning /proc/pid/pagemap soft-dirty bits *)
  | Procfs_clear       (** writing /proc/pid/clear_refs *)
  | Snapshot_copy      (** copying a region's pages into the snapshot *)
  | Fn_crash           (** the function body crashes mid-request *)
  | Fn_hang            (** the function body never returns *)
  | Node_crash         (** a whole node dies: warm pool and in-flight work lost *)
  | Node_hang          (** a node stops responding for a while (GC storm, IO stall) *)
  | Cluster_msg_loss   (** a controller→node dispatch message is lost (partition) *)
  | Heartbeat_drop     (** a node→controller heartbeat is lost in transit *)
  | Snapshot_bitflip   (** a captured page word is silently corrupted in the buffer *)
  | Snapshot_torn      (** capture interrupted mid-region: a tail of stale bytes persists *)
  | Restore_skip       (** a dirty run is silently not written back during restore *)

type t

val none : t
(** The empty plan: never fires, draws nothing. *)

val is_none : t -> bool
(** [is_none t] is a physical-equality test against {!none}; O(1). *)

val create : seed:int -> t
(** A fresh plan with no rules. Equal seeds give equal schedules once
    equal rules are installed. *)

val set : t -> site -> ?prob:float -> ?nth:int list -> unit -> unit
(** [set t site ~prob ~nth ()] installs a rule: the site fires on each
    occurrence with probability [prob] (default 0), and additionally on
    the occurrences whose 1-based index appears in [nth] (default []).
    Raises [Invalid_argument] on {!none} or if [prob] is outside
    [\[0,1\]]. *)

val uniform : seed:int -> prob:float -> site list -> t
(** [uniform ~seed ~prob sites] is a plan firing each listed site with
    probability [prob] per occurrence. *)

val fire : t -> site -> bool
(** [fire t site] records one occurrence of [site] and reports whether
    the fault fires. Always [false] for {!none} (and cost-free: no
    counter bump, no random draw). *)

val occurrences : t -> site -> int
(** How many times [site] has been reached. *)

val fired : t -> site -> int
(** How many times [site] has fired. *)

val draw : t -> site -> bound:int -> int
(** [draw t site ~bound] draws a uniform int in [\[0, bound)] from the
    site's own stream — the corruption parameter (page index, tear point)
    for a site that just fired. Only call after {!fire} returned [true]:
    the draw advances the site's stream, so guarding it keeps disabled
    and miss-only runs bit-identical. Raises [Invalid_argument] on
    {!none} or a non-positive bound. *)

val total_fired : t -> int
(** Total fired faults across all sites. *)

val all_sites : site list
val restore_sites : site list
(** The sites exercised by snapshot/restore machinery (everything except
    [Fn_crash], [Fn_hang] and the node-level sites). *)

val cluster_sites : site list
(** The node-level sites exercised only by the cluster layer
    ([Node_crash], [Node_hang], [Cluster_msg_loss], [Heartbeat_drop]).
    Single-node runs never reach them, so their streams stay untouched. *)

val corruption_sites : site list
(** The silent data-corruption sites ([Snapshot_bitflip], [Snapshot_torn],
    [Restore_skip]): the operation "succeeds" but leaves wrong bytes
    behind. Only content-hash verification or scrubbing can detect them —
    no [Error site] is ever surfaced. *)

val site_name : site -> string
