(** Bounded admission queue with pluggable shedding policy.

    The shared overload-protection primitive behind Invoker and Node: a
    bounded request buffer that sheds work deterministically (no randomness —
    a fixed seed replays every drop decision), purges entries whose deadline
    has already passed at every hand-off, and counts what it dropped.

    The {!unbounded} configuration reproduces a raw FIFO [Queue.t] exactly:
    admission always succeeds and, for requests without deadlines, no purge
    ever fires — pre-overload-protection runs are bit-identical. *)

type policy =
  | Fifo  (** Drop-tail: reject the newcomer when full. *)
  | Edf_drop
      (** FIFO service but, when full, drop whichever entry (newcomer
          included) has the earliest deadline. Deadline-free entries are
          dropped last. *)

type reason =
  | Capacity  (** The queue was full. *)
  | Expired  (** The deadline passed while waiting (or on arrival). *)
  | Brownout  (** Dropped by the overload controller's priority shed. *)

val reason_name : reason -> string

type config = { capacity : int; policy : policy }

val unbounded : config
(** [capacity = max_int], FIFO — behaviorally identical to a raw queue. *)

val bounded : ?policy:policy -> int -> config
(** [bounded ?policy capacity]; policy defaults to [Fifo].
    @raise Invalid_argument if [capacity <= 0]. *)

type 'a t
(** A queue of requests with a ['a] payload (completion callbacks etc.). *)

val create :
  ?trace:Gh_sim.Trace.t ->
  ?label:string ->
  ?on_shed:(reason -> Request.t -> 'a -> unit) ->
  config ->
  'a t
(** [on_shed] fires once per dropped entry, including dead-on-arrival
    rejections that were never enqueued. With [trace], every drop emits an
    ["admission"] event stamped with the caller's [~now]; [label] names
    this queue in those events (default ["queue"]). *)

val admit : 'a t -> now:Gh_sim.Time_ns.t -> Request.t -> 'a -> bool
(** Purge expired entries, then enqueue. Returns [false] iff the request
    itself was shed (dead on arrival, or chosen as the victim of a full
    queue); a [true] return can still have shed some {e other} entry. *)

val take : 'a t -> now:Gh_sim.Time_ns.t -> (Request.t * 'a) option
(** Purge expired entries, then pop the oldest entry (both policies serve
    FIFO). *)

val purge_expired : 'a t -> now:Gh_sim.Time_ns.t -> unit
(** Shed every queued entry whose deadline has passed. Called internally by
    {!admit}/{!take}; exposed so owners can purge before counting. *)

val cancel : 'a t -> req_id:int -> 'a option
(** Remove the queued entry for [req_id], if any, {e silently}: no shed or
    expired count, no shed hook, no trace event — a hedged request's loser
    copy was served elsewhere, and cancellation must leave no metrics
    residue. Returns the removed payload. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val high_water : 'a t -> int
(** Largest queue length ever observed (after admission, before shedding
    brought it back under capacity). *)

val shed_count : 'a t -> int
(** Entries dropped for [Capacity] or [Brownout]. *)

val expired_count : 'a t -> int
(** Entries dropped for [Expired], including dead-on-arrival rejects. *)

val config : 'a t -> config
