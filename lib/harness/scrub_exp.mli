(** Snapshot integrity sweep (robustness extension): corruption rate x
    verification policy across every strategy.

    Each container's fault plan enables only the {e corruption} sites:
    snapshot captures can silently flip a bit or tear a block in the
    stored buffer, and restores can silently skip writes — none of them
    fail any operation, so without integrity checking the damage surfaces
    only as wrong request results. The sweep runs the recovery-enabled
    invoker under four policies: [Off] (no checking — the vulnerable
    baseline), [Scrub_only] (idle-time scrubbing of the stored snapshot),
    [Sampled k] (scrubbing + every k-th restored block audited, rotating
    deterministically), and [Full] (scrubbing + every restore fully
    audited).

    Ground truth is an oracle checked at every dispatch: strategies that
    can prove what their process should contain (eager GH right after a
    restore, CRIU between restores) audit the live process against the
    snapshot hashes; serving a request while that audit fails is a
    {e corrupted serve}. Under [Full] the count must be zero — every
    corrupt restore is caught and poisoned before the next dispatch —
    and the harness exposes {!protected_corrupted_serves} as the CI gate.
    Under [Off] a nonzero count demonstrates the window the machinery
    closes. [Sampled] bounds the window to k restores; [Scrub_only]
    catches stored-side damage but not skipped restore writes.

    GH-family cells also register their snapshots in a cross-container
    {!Groundhog_core.Dedup} index, reporting pages saved by sharing
    identical blocks. All of it is deterministic from the config seed. *)

type policy = Off | Scrub_only | Sampled of int | Full

val policy_name : policy -> string

val default_policies : policy list
(** [Off; Scrub_only; Sampled 4; Full]. *)

val default_rates : float list
(** [0; 0.02; 0.1] per-site corruption probability. *)

val strategies : Gh_isolation.Registry.id list
(** All seven registry strategies (filtered per-spec by support). *)

type row = {
  strategy : Gh_isolation.Registry.id;
  rate : float;
  policy : policy;
  offered : int;
  delivered : int;
  corrupted_served : int;  (** Oracle hits at dispatch — 0 under [Full]. *)
  verify_detections : int;  (** Restore-time audit failures. *)
  scrub_detections : int;  (** Idle-scrubber corruption finds. *)
  verified_blocks : int;  (** Blocks audited at restore time. *)
  scrubbed_blocks : int;  (** Blocks checked by the idle scrubber. *)
  detect_ms : float;
      (** Mean time from snapshot capture to detection; NaN without
          detections. *)
  mttr_ms : float;  (** Mean failure-to-serving-again; NaN without samples. *)
  quarantined : int;
  replacements : int;
  overhead_ms : float;
      (** The modelled hashing cost of all audits and scrub slices —
          tallied, never charged to the simulated timeline. *)
  dedup_saved_pages : int option;  (** [None] for non-dedup strategies. *)
  dedup_shared_blocks : int option;
}

type point = { rate : float; policy : policy; rows : row list }

val measure :
  Config.t ->
  Gh_isolation.Registry.id ->
  Gh_faas.Function_model.spec ->
  rate:float ->
  policy:policy ->
  n_containers:int ->
  n_requests:int ->
  row option
(** One cell; [None] when the strategy doesn't support the spec.
    Deterministic: the same seed, spec, rate and policy reproduce the
    identical corruption schedule and output. *)

val run :
  Config.t ->
  ?rates:float list ->
  ?policies:policy list ->
  ?n_containers:int ->
  ?requests:int ->
  Gh_workloads.Catalog.entry ->
  point list

val protected_corrupted_serves : point list -> int
(** Corrupted serves under [Full] — the CI gate checks this is 0. *)

val unprotected_corrupted_serves : point list -> int
(** Corrupted serves under [Off] — nonzero at nonzero rates shows the
    window the integrity machinery closes. *)

val print : Format.formatter -> Gh_workloads.Catalog.entry -> point list -> unit

val sweep : Sweep.t
(** The `gh-bench scrub` descriptor: default 60 requests per cell; the
    smoke grid is policies [Off] and [Full] at rates 0 and 5% with 30
    requests. *)
