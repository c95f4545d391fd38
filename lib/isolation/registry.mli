(** The named strategy registry used by the harness and the CLI. *)

type id = Base | Gh | Gh_nop | Fork | Faasm | Coldstart | Criu

val all : id list
val to_string : id -> string

val of_string : string -> (id, string) result

val supports : id -> Gh_faas.Function_model.spec -> bool
(** Cheap support check (no process is built): FORK needs a
    single-threaded runtime, FAASM a WebAssembly port. *)

val make :
  id ->
  ?fault:Gh_sim.Fault.t ->
  ?verify:Groundhog_core.Manager.verify ->
  ?dedup:Groundhog_core.Dedup.t ->
  rng:Gh_sim.Rng.t ->
  Gh_faas.Function_model.spec ->
  (Gh_faas.Strategy_intf.t, string) result
(** Build the strategy for a benchmark; [Error] when the combination is
    unsupported (FORK on multi-threaded runtimes, FAASM without a wasm
    port) — or, with a [fault] plan attached, when a fault fires during
    the container's initial snapshot (a failed build, retryable).
    [verify] (restore-time hash audit) applies to the strategies that
    restore from a snapshot (GH, GH_NOP's crash path, CRIU); [dedup]
    (cross-container snapshot sharing) to GH and GH_NOP. Both are
    silently ignored elsewhere. *)
