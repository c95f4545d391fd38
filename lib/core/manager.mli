(** The Groundhog manager (§4, Fig. 2): the per-container process that
    interposes between the FaaS platform and the function process.

    Lifecycle: the manager is created around a freshly exec'd function
    process; after the runtime has served a dummy request (triggering lazy
    paging, class loading and global-state initialization), the manager
    takes the snapshot; thereafter each completed invocation is followed by
    a {!restore} before the next request may be forwarded ({!is_clean}
    gates request delivery — Groundhog buffers inputs until the process is
    clean, §4.5).

    The lifecycle is fail-closed: the status lattice is

    {v
            take_snapshot ok            restore ok (+ verify ok)
      Dirty ---------------> Clean <------------------ Restoring
        ^                      |                            |
        |      mark_dirty      |     restore started        |
        +----------------------+  (Dirty -> Restoring)      |
                                                            v
                 any snapshot/restore/verify failure --> Poisoned
    v}

    [Poisoned] is absorbing: no operation on this manager ever returns it
    to [Clean] — the only way forward is to kill the process and build a
    fresh manager (cold restart + re-snapshot), which the [Gh_faas]
    recovery pipeline drives.

    The manager's CPU time accumulates on its own {!account}: this work is
    off the request's critical path, which is why it only shows up in
    throughput (high-load) measurements. *)

type t

type mode =
  | Eager  (** Copy every present page at snapshot time (the paper's
               evaluated configuration). *)
  | Incremental
      (** §5.5's optimization: arm copy-on-write at snapshot time and
          salvage originals on first modification — manager memory then
          grows with the pages ever modified, at the price of a one-time
          on-critical-path CoW fault per unique page. *)

type status =
  | Clean  (** Provably holds no residue; may serve a request. *)
  | Dirty  (** A request has touched the process; restore pending. *)
  | Restoring  (** A restore is in flight. *)
  | Poisoned
      (** A snapshot, restore, or verification failed: the process state is
          unknown. Absorbing — only kill + cold restart recovers. *)

type failure = {
  what : string;  (** Human-readable cause (fault site or verify mismatch). *)
  spent_ns : Gh_sim.Time_ns.t;  (** Manager time burned by the failed attempt. *)
}

(** Restore-time hash-audit policy. Unlike [paranoid] (which re-reads
    every stored word), the audit hashes the {e restored process's}
    memory per {!Snapshot.block_pages}-page block against the hashes
    captured from the source — so it also catches corruption of the
    stored buffer itself and silently-skipped restore writes. Its
    modeled cost is tallied on {!verify_ns} / {!verified_blocks}, never
    charged to the account (DESIGN §14: the timeline is identical with
    verification on or off). *)
type verify =
  | Verify_off
  | Verify_sampled of int
      (** Check every [k]-th block, rotating the offset with the restore
          count: any persistent corruption is caught within [k]
          restores at [1/k] of the full audit's work. *)
  | Verify_full  (** Check every block on every restore. *)

val create : ?paranoid:bool -> ?verify:verify -> ?mode:mode -> Gh_proc.Process.t -> t
(** [paranoid] makes every {!restore} verify the result against the
    snapshot and poison the manager on any mismatch (off by default;
    incompatible with [Incremental]). [verify] (default [Verify_off])
    adds the hash audit after each restore — also eager-only: an
    incremental shell's hashes cover the salvaged buffer, not the full
    process image. [mode] defaults to [Eager]. The fresh manager starts
    [Dirty] — nothing is proven until the snapshot. *)

val process : t -> Gh_proc.Process.t
val account : t -> Gh_sim.Account.t

val verify : t -> verify
(** The restore-time audit policy given to {!create}. *)

val status : t -> status
val status_name : status -> string

val take_snapshot : t -> (Gh_sim.Time_ns.t, failure) result
(** Capture the clean state; returns the capture cost and transitions to
    [Clean]. Must be called exactly once, before the first {!restore}; a
    fault during capture poisons the manager.
    @raise Failure if a snapshot was already taken. *)

val take_snapshot_exn : t -> Gh_sim.Time_ns.t
(** {!take_snapshot} for fault-free contexts. @raise Failure on a fault. *)

val snapshot : t -> Snapshot.t option

val mark_dirty : t -> unit
(** Note that a request reached the function process: the container is no
    longer clean and the next request must wait for a restore. Does not
    un-poison. *)

val is_clean : t -> bool
(** True when the process provably holds no residue of a previous request:
    right after the snapshot, or right after a restore. *)

val restore : t -> (Breakdown.t, failure) result
(** Revert to the snapshot (§4.4). [Ok] transitions to [Clean]; any fault
    or (paranoid) verification mismatch transitions to [Poisoned] and
    reports how much manager time the failed attempt burned. When the
    hash audit fails because the {e stored} block is corrupt, every other
    dedup sharer of that block is poisoned too (see {!join_dedup}); a
    restore-skip leaves the store intact and poisons this manager alone.
    @raise Failure if no snapshot exists. *)

val restore_exn : t -> Breakdown.t
(** {!restore} for fault-free contexts. @raise Failure on a fault. *)

val skip_restore : t -> unit
(** The same-security-domain optimization (§4.4): consecutive requests from
    mutually trusting callers may skip the rollback. Marks the container
    clean {e without} restoring — the caller is responsible for the policy
    decision (see [Gh_isolation.Policy]).
    @raise Invalid_argument on a [Poisoned] manager: trust between callers
    never licenses serving from a process in an unknown state. *)

val poison : t -> string -> unit
(** External failure (kill after a hang, timeout): force [Poisoned]. *)

(** {1 Dedup membership} *)

val join_dedup : t -> Dedup.t -> owner:string -> unit
(** Register the eager snapshot in a cross-container {!Dedup} index under
    [owner]. A no-op in [Incremental] mode (a shell's content is not
    stable at registration time) and before the snapshot. From then on a
    stored-block corruption that this manager's audit or scrub finds
    blasts every other sharer of the block, another sharer's blast
    poisons this manager, and {!buffer_pages} reports only the pages this
    manager stores itself.
    @raise Invalid_argument if the manager already joined an index. *)

val kill : t -> unit
(** SIGKILL the function process: poison the manager (["killed"], unless
    already poisoned) and leave the dedup index. Idempotent. *)

val restores_performed : t -> int

val failures : t -> int
(** Snapshot/restore/verify failures so far (including {!poison} calls). *)

val last_failure : t -> failure option

val total_manager_ns : t -> Gh_sim.Time_ns.t
(** All manager CPU time so far: snapshot + every restore. *)

(** {1 Integrity: scrubbing, audit accounting, ground truth} *)

val scrub :
  t -> blocks:int -> [ `Skip | `Checked of int * bool | `Corrupt of Snapshot.corruption ]
(** One bounded slice of stored-side scrubbing: re-hash up to [blocks]
    snapshot blocks from the internal cursor. [`Checked (n, finished)]
    verified [n] clean blocks, [finished] meaning the pass reached the
    snapshot's end (the caller should stop rescheduling until the next
    idle period). [`Corrupt] poisons the manager — the stored buffer can
    no longer be trusted to restore from — and every other dedup sharer
    of the corrupt block. [`Skip] when poisoned or not
    yet snapshotted. Detects bitflips and torn captures in the buffer;
    restore-skips live in the restore path and are the audit's job. *)

val audit_oracle : t -> [ `Intact | `Corrupt of string ] option
(** Ground truth for experiments: does the current process image match
    the snapshot hashes? [Some] only when [Clean] {e via an actual
    restore} (eager mode) — after a fresh snapshot or a trusted
    [skip_restore] the process itself is the reference and the probe is
    meaningless. Free: reads memory only. *)

val verified_blocks : t -> int
(** Blocks hash-audited across all restores. *)

val last_verify_blocks : t -> int
(** Blocks audited by the most recent successful restore (0 if the last
    audit failed or never ran). *)

val verify_ns : t -> int
(** Modeled audit cost (pages hashed × [hash_per_page_ns]) — tallied,
    never charged to the account. *)

val verify_failures : t -> int
val scrubbed_blocks : t -> int

val scrub_ns : t -> int
(** Modeled scrub cost, same tally-only discipline as {!verify_ns}. *)

val buffer_pages : t -> int
(** Pages of function memory held in the manager: the whole present
    footprint for [Eager], only the salvaged pages for [Incremental].
    While the manager is a dedup member, only the pages it stores itself
    ({!Dedup.charged_pages}: shared blocks are charged to their first
    holder). *)
