(** BASE: the insecure baseline — plain container reuse, no request
    isolation (§5.1). The container is initialized and warmed once;
    every subsequent request executes directly in the shared, never-reset
    process. Fast, and leaky by construction.

    If the function process crashes mid-request, BASE has nothing to roll
    back to: the platform rebuilds the container, paying the full cold
    start before the next request. *)

val make :
  ?fault:Gh_sim.Fault.t ->
  rng:Gh_sim.Rng.t ->
  Gh_faas.Function_model.spec ->
  Gh_faas.Strategy_intf.t
