(** Synthetic function-model generator.

    Draws random-but-plausible function specs spanning the catalog's
    envelope (duration, footprint, dirty rate, payload, runtime, THP
    granularity, pathologies). Used by the property tests to exercise the
    isolation strategies far outside the 58 fixed benchmarks, and handy for
    capacity-planning "what-if" sweeps. *)

type profile = {
  min_exec_ms : float;
  max_exec_ms : float;
  min_mapped : int;
  max_mapped : int;
  max_dirty_fraction : float;  (** Of the mapped pages. *)
  allow_pathologies : bool;  (** Leaks, GC penalties, buggy residue copy. *)
}

val default_profile : profile
(** Roughly the catalog's envelope, pathologies allowed. *)

val tiny_profile : profile
(** Small/fast specs for property tests. *)

val draw : ?profile:profile -> Gh_sim.Rng.t -> Gh_faas.Function_model.spec
(** A random spec; every field but the name is deterministic per RNG state.
    The name mixes the 24-bit random tag with a process-wide monotonic
    counter so names never collide (per-function stats are keyed by name,
    and random tags alone birthday-collide at the thousands-of-functions
    scale); the counter consumes no randomness, so the RNG stream is
    identical to older versions. The generated spec is always buildable:
    page quotas are clipped to the footprint and the runtime's fixed
    regions. *)

val draw_many : ?profile:profile -> Gh_sim.Rng.t -> int -> Gh_faas.Function_model.spec list

val burst :
  ?duty:float ->
  ?cycle_s:float ->
  Gh_sim.Rng.t ->
  rate_rps:float ->
  n:int ->
  Gh_sim.Time_ns.t list
(** [burst rng ~rate_rps ~n] draws [n] absolute arrival instants (ascending,
    starting near 0) from a two-state modulated Poisson process: arrivals
    bunch into ON windows covering a [duty] fraction (default 0.3) of each
    exponentially distributed cycle (mean [cycle_s], default 2 s), so the
    rate inside a burst is [rate_rps / duty] while the long-run offered rate
    stays [rate_rps]. Deterministic per RNG state.
    @raise Invalid_argument on non-positive rates/cycles, [duty] outside
    (0, 1], or negative [n]. *)
