(** Throughput scaling with cores (§5.3.4, Fig. 7).

    Repeats the saturation throughput measurement with 1–4 containers
    (one per core); each container runs an independent function process and
    Groundhog manager, so the expectation is near-linear scaling. As in the
    paper (6 runs with error bars), each point averages several runs with
    different seeds and reports the standard deviation. *)

type result = {
  entry : Gh_workloads.Catalog.entry;
  by_cores : (int * float) list;  (** (cores, mean GH throughput r/s). *)
  std_by_cores : (int * float) list;  (** (cores, std over repeats). *)
}

val run : ?max_cores:int -> Config.t -> Gh_workloads.Catalog.entry list -> result list
(** Each point averages 3 runs (the paper used 6). *)

val linearity : result -> float option
(** Throughput at max cores divided by (max cores × throughput at 1 core);
    1.0 = perfectly linear. *)

val print_fig7 : Format.formatter -> result list -> unit
