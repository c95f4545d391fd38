(** The scaffold shared by the five fail-closed sweeps ({!Fault_exp},
    {!Overload_exp}, {!Cluster_exp}, {!Scrub_exp}, {!Slo_exp}).

    It owns what the harnesses used to copy: the alice/bob principal
    pair, the capacity probe, the invoker recovery config, the
    NaN-on-empty latency summaries, and the descriptor that `gh-bench`
    turns into a subcommand. Each harness keeps only its cell logic, its
    gate and its table. *)

val principals : Gh_faas.Principal.t array
(** alice (id 1) and bob (id 2); sweeps alternate them by request id. *)

val service_ns :
  Config.t ->
  Gh_isolation.Registry.id ->
  Gh_faas.Function_model.spec ->
  seed:int ->
  salt:int ->
  Gh_sim.Time_ns.t
(** Mean per-request core occupancy (critical path + deferred work) plus
    the dispatch overhead, measured over 8 alternating-principal requests
    on a throwaway instance seeded from [seed lxor salt], so Groundhog's
    restore is always charged. Sizes offered load, deadlines and
    timeouts. @raise Failure if the strategy cannot be built. *)

val recovery : Gh_faas.Function_model.spec -> Gh_faas.Invoker.recovery
(** Fail-closed container recovery: hang timeout [1 s + 8 × exec_ns],
    quarantine after 3 failures, up to 5 paced rebuilds, 3 attempts per
    request. *)

val p50_p99 : float list -> float * float
(** Median and p99 of the samples; NaN for both when there are none. *)

val mean_ms : Gh_sim.Time_ns.t list -> float
(** Mean in milliseconds; NaN when there are no samples. *)

(** One sweep as data. [smoke] is the tiny CI grid; [run] is the default
    grid with [requests] arrivals per cell ([default_n] unless the user
    says otherwise); [gate] is the fail-closed verdict, with the message
    the CLI prints on failure. *)
type t =
  | Sweep : {
      name : string;  (** Subcommand name. *)
      doc : string;  (** Subcommand summary. *)
      n_doc : string;  (** What one unit of [-n] counts. *)
      default_n : int;
      smoke_doc : string;  (** What [--smoke] runs. *)
      smoke : Config.t -> Gh_workloads.Catalog.entry -> 'points;
      run : Config.t -> requests:int -> Gh_workloads.Catalog.entry -> 'points;
      print : Format.formatter -> Gh_workloads.Catalog.entry -> 'points -> unit;
      gate : 'points -> (unit, string) result;
    }
      -> t

val exec :
  t ->
  Config.t ->
  smoke:bool ->
  requests:int ->
  Gh_workloads.Catalog.entry ->
  Format.formatter ->
  (unit, string) result
(** Run the smoke or default grid, render its table to the formatter, and
    return the gate. *)
