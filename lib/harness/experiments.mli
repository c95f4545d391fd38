(** The experiment registry: one named entry per table and figure in the
    paper's evaluation (the DESIGN.md per-experiment index), runnable from
    the CLI ([gh-bench <id>]) and from bench/main.ml. *)

type id =
  | Fig3_left
  | Fig3_right
  | Fig4
  | Fig5
  | Fig6
  | Fig7
  | Fig8
  | Table1
  | Table2
  | Table3
  | Headline
  (* Beyond the paper: ablations and extensions indexed in DESIGN.md. *)
  | Motivation  (** §1's trivial solutions (COLDSTART, CRIU) vs GH. *)
  | Ablation_tracking  (** Soft-dirty vs userfaultfd (§4.3). *)
  | Ablation_coalescing  (** Restore-copy run batching. *)
  | Policy_skip  (** The §4.4 rollback-skip policy vs caller diversity. *)
  | Load_latency  (** Open-loop latency vs offered load (§4's claim). *)
  | Snapshot_cost  (** §5.5 across the whole catalog. *)
  | Multi_tenant
      (** Container density on a shared node: eager GH snapshot buffers vs
          incremental mode (extension). *)
  | Crash_recovery
      (** Restore as fault recovery: BASE rebuilds crashed containers,
          snapshot-holders roll back (extension). *)
  | Fault_injection
  | Overload
      (** Seeded fault injection through the fail-closed recovery pipeline:
          availability, goodput, MTTR, p99 vs fault rate (robustness
          extension). *)
  | Scrub_integrity
      (** Snapshot integrity: corruption rate x verification policy, with
          idle-time scrubbing and dedup sharing (robustness extension). *)

val all : id list
(** The paper's tables and figures, in order. *)

val extras : id list
(** The ablation/extension experiments. *)

val to_string : id -> string
val of_string : string -> (id, string) result
val describe : id -> string

type cache
(** Memo for the catalog-wide latency/throughput/breakdown sweeps shared
    between experiments (Table1 after Fig4 reuses the latency sweep).
    Safe for concurrent callers: each slot fills exactly once, other
    callers block until it is done. A cache belongs to one configuration;
    never reuse it with a different [Config.t]. *)

val cache : Config.t -> cache
(** A fresh, empty cache for one batch of experiments under this config. *)

val run : ?cache:cache -> id -> Config.t -> Format.formatter -> unit
(** Execute the experiment and print its table/series. Pass [cache] to
    share the catalog-wide sweeps across several [run] calls; without it
    each call measures independently. *)

val run_all : Config.t -> Format.formatter -> unit
(** Run {!all} — the paper set. *)

val run_extras : Config.t -> Format.formatter -> unit

val sweeps : Sweep.t list
(** The five fail-closed sweeps (fault, overload, cluster, slo, scrub),
    each a `gh-bench` subcommand with its own gate. *)
